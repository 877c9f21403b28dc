"""The network-file writer and reader as they were before netir wrote text.

The writer builds one dict per weight cell and hands the whole tree to
json.dumps; the reader decodes and cap-checks every cell on its own.  They
are the oracles of tests/test_netfile_differential.py: netir's writer
must give the same bytes, and its memoized reader the same net or the
same refusal.
"""

import json

from memnet.exactnum import DyadicRational, ZERO
from memnet.netir import (FORMAT_VERSION, MAX_EXPONENT, MAX_MANTISSA_BITS,
                          AffineLayer, DimensionError, LayeredNet, metrics)


def cell_json(w: DyadicRational) -> dict:
    return {"s": w.sign, "m": format(w.mantissa, "x"), "e": w.exponent}


def reference_dict(net: LayeredNet, builder: dict | None = None) -> dict:
    layers = []
    for layer in net.layers:
        if max(layer.in_dim, layer.out_dim) <= 16:
            w = []
            for row in layer.rows:
                dense_row = [cell_json(ZERO) for _ in range(layer.in_dim)]
                for i, wt in row:
                    dense_row[i] = cell_json(wt)
                w.append(dense_row)
        else:
            w = {"sparse": [[[i, cell_json(wt)] for i, wt in row] for row in layer.rows],
                 "in_dim": layer.in_dim}
        layers.append({
            "w": w,
            "b": [cell_json(b) for b in layer.biases],
            "relu": layer.relu,
        })
    out = {
        "format_version": FORMAT_VERSION,
        "input_dim": net.input_dim,
        "provenance": net.provenance,
        "output_nonneg": net.output_nonneg,
        "layers": layers,
        "metrics": metrics(net).to_json(),
    }
    if builder is not None:
        out["builder"] = builder
    return out


def reference_bytes(net: LayeredNet, builder: dict | None = None) -> bytes:
    return json.dumps(reference_dict(net, builder), sort_keys=True,
                      separators=(",", ":")).encode()


def _from_json(obj) -> DyadicRational:
    sign = int(obj["s"])
    mantissa = int(obj["m"], 16)
    exponent = int(obj["e"])
    if sign == 0:
        if mantissa != 0 or exponent != 0:
            raise ValueError("non-canonical zero in serialized dyadic")
        return ZERO
    if sign not in (-1, 1) or mantissa == 0 or not mantissa & 1:
        raise ValueError(f"non-canonical serialized dyadic: {obj}")
    return DyadicRational(sign * mantissa, exponent)


def _capped(obj) -> DyadicRational:
    v = _from_json(obj)
    if abs(v.exponent) > MAX_EXPONENT or v.mantissa.bit_length() > MAX_MANTISSA_BITS:
        raise ValueError(f"weight {v!r} exceeds the caps |e| <= {MAX_EXPONENT}, "
                         f"mantissa <= {MAX_MANTISSA_BITS} bits")
    return v


def reference_deserialize(obj: dict) -> LayeredNet:
    try:
        if obj.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported network format: {obj.get('format_version')!r}")
        if not isinstance(obj["input_dim"], int):
            raise ValueError("input_dim must be an integer")
        layers = []
        for spec in obj["layers"]:
            biases = [_capped(b) for b in spec["b"]]
            w = spec["w"]
            if isinstance(w, dict):
                in_dim = int(w["in_dim"])
                rows = [tuple((int(i), _capped(wt)) for i, wt in row) for row in w["sparse"]]
            else:
                in_dim = len(w[0]) if w else 0
                rows = [tuple((i, _capped(wt)) for i, wt in enumerate(row) if wt["s"] != 0)
                        for row in w]
            layers.append(AffineLayer(in_dim, len(biases), rows, biases, spec["relu"]))
            for u in spec.get("passthrough", ()):  # identity units an older writer listed
                if not 0 <= u < len(biases):
                    raise DimensionError(f"passthrough unit {u} out of range")
        return LayeredNet(obj["input_dim"], layers, obj.get("provenance", ""),
                          obj.get("output_nonneg", False))
    except (TypeError, AttributeError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed network file: {type(exc).__name__}: {exc}") from exc
