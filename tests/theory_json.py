"""The formal theory writer: the inverse of `fqft.deformation.theory_from_json`,
shared by the tests that feed theories to the CLI or round-trip them."""

import json

from fqft.scalars import encode_scalar


def theory_to_json(theory) -> str:
    doc = {
        "primaries": [
            {"label": p.label, "h": encode_scalar(p.h), "hbar": encode_scalar(p.hbar)}
            for p in theory.primaries
        ],
        "coefficients": [
            {
                "a": a,
                "b": b,
                "c": c,
                "mu": list(mu),
                "mubar": list(mubar),
                "value": encode_scalar(val),
            }
            for (a, b), rows in sorted(theory.rows.items())
            for (c, mu, mubar, val) in rows
        ],
        "mixing": [
            {"a": a, "gamma": g, "value": encode_scalar(v)}
            for (a, g), v in sorted(theory.mixing.items())
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
