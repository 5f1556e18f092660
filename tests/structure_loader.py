"""Reader of the CLI's structure records (`<name>.json` + `<name>.npz`).

Rebuilds the polynomial a record describes from its types, layouts, terms,
rates and shifts, with each TrigPoly part taken from the archive in storage order,
so that the rebuilt polynomial evaluates bit for bit as the written one.
"""

import json
from pathlib import Path

import numpy as np

from sparsetrig.blockpoly import BlockSum, BlockTerm, LazyRate, ScaledProduct
from sparsetrig.engines import _Modulated
from sparsetrig.trigpoly import TrigPoly, _freq_array

FORMAT = "sparsetrig-structure/2"


def _rate(record):
    if isinstance(record, dict):
        return LazyRate(record["mult"], record["base"], record["exp"])
    return int(record, 16)


def load_structure(path: Path):
    """The polynomial of the structure record at `path` (the JSON file)."""
    record = json.loads(Path(path).read_text())
    assert record["format"] == FORMAT
    with np.load(Path(path).parent / record["parts_file"], allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
    parts = {}

    def part(i: int) -> TrigPoly:
        if i not in parts:  # one object per part, so shared payloads stay shared
            ks = arrays[f"k{i}"]
            if ks.dtype.kind == "U":
                ks = _freq_array([int(k, 16) for k in ks.tolist()])
            parts[i] = TrigPoly._of_arrays(ks, arrays[f"c{i}"])
        return parts[i]

    def build(node):
        kind = node["type"]
        if kind == "TrigPoly":
            return part(node["part"])
        if kind == "BlockSum":
            return BlockSum([BlockTerm(part(t["carrier"]), part(t["payload"]),
                                       _rate(t["rate"]),
                                       tuple(t["shift"]) if "shift" in t else None)
                             for t in node["terms"]], layout=node["layout"])
        if kind == "ScaledProduct":
            return ScaledProduct(build(node["q"]), _rate(node["rate"]), build(node["p"]))
        assert kind == "Modulated", kind
        return _Modulated(_rate(node["nu"]), build(node["inner"]), node["kind"])

    poly = build(record["poly"])
    assert len(arrays) == 2 * len(parts)  # every part stored is used, once
    return poly
