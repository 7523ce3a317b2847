"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports weylsys and registers one model, then prints ``ready``: the parent
times spawn to that line as the set-up cost an invocation pays before its
first pipeline stage.  Afterwards, untimed, it computes direct-route
reference values at the requested base points through the public API and
prints them with the library versions as one JSON line.

usage: python3 perfbench/probe.py '{"model": [name, params],
                                    "points": [[x1, x2], ...],
                                    "quantities": ["a1", "a0"]}'
"""

import json
import sys


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def references(weylsys, model, points: list, quantities: list) -> list:
    """Direct-route a1+, a0+ with the CLI's default rule (256 nodes, step 1e-3)."""
    lead, sub = model.symbol_fields()
    quad = weylsys.CosphereQuadrature(n_angles=256)
    out = []
    for x in points:
        ref = {"x": x}
        if "a1" in quantities:
            ref["a1"] = weylsys.first_weyl(lead, x, quad)
        if "a0" in quantities:
            ref["a0"] = weylsys.second_weyl(lead, sub, x, quad, 1e-3).value
        out.append(ref)
    return out


def main() -> None:
    request = json.loads(sys.argv[1])
    import weylsys

    name, params = request["model"]
    model = weylsys.build_model(name, params)
    print("ready", flush=True)
    refs = references(weylsys, model, request.get("points", []),
                      request.get("quantities", []))
    print(json.dumps({"refs": refs, "versions": versions()}), flush=True)


if __name__ == "__main__":
    main()
