"""Library-level operations of the `maps-1024` and `hom-sweep` workloads.

One call of `main` is one benchmark operation, run in a fresh process:

    python perfbench/workloads.py maps --grid 1024 --points "triangle:x,y;...|square:x,y;..."
    python perfbench/workloads.py hom --thetas "0.1,0.7,..."

The inputs (conditioning points, mixing angles) are generated by run.py
from the workload seed; this module only receives them.  It prints one
JSON object: the program's own checks as booleans and the values run.py
compares against the reference.  It exits 1 if a check failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys

from fewbody import cli, density_maps, orbitals

# geometry -> (particles, constructor of its orbitals), as in the README examples
GEOMETRIES = {
    "triangle": (3, lambda: orbitals.triangle_mos(2.0, 2.5)),
    "square": (4, lambda: orbitals.rectangle_mos(2.0, 2.0)),
}
OCCUPANCY = {3: (2.0 / 3.0, 1.0 / 3.0), 4: (0.5, 0.5)}

HOM_CASES = tuple(
    (statistics, convention, name)
    for statistics in ("boson", "fermion")
    for convention, names in (
        ("optical", ("HH", "VV", "HV-sym", "HV-antisym")),
        ("atomic", ("aa", "bb", "ab-sym", "ab-antisym")),
    )
    for name in names
)


def _grid_digest(values) -> list[float]:
    """A few order-independent numbers that pin a grid's values."""
    flat = values.reshape(-1)
    return [float(flat.sum()), float((flat * flat).sum()), float(flat.max()), float(flat.min())]


def maps(grid: int, points: dict[str, list[tuple[float, float]]]) -> dict:
    spec = density_maps.GridSpec(resolution=(grid, grid))
    checks: dict[str, bool] = {}
    values: dict[str, object] = {}
    for geometry, (n, build) in GEOMETRIES.items():
        mos = build()
        wg, we = OCCUPANCY[n]

        def marginal(x, y, mos=mos, wg=wg, we=we):
            g = mos["g"].evaluate(x, y)
            e = mos["e"].evaluate(x, y)
            return wg * g * g + we * e * e

        single = density_maps.single_density(n, mos, spec)
        checks[f"{geometry}.single integrates to 1"] = abs(single.integral() - 1.0) <= 1e-3
        values[f"{geometry}.single"] = _grid_digest(single.values)
        values[f"{geometry}.single.maxima"] = density_maps.local_maxima(single)

        kernel = density_maps.pair_density(n, mos)
        report = density_maps.antibunching_check(kernel, marginal, spec)
        checks[f"{geometry}.antibunched"] = report.antibunched
        values[f"{geometry}.antibunching"] = [
            report.max_ratio, *report.location, report.points_checked
        ]

        for idx, r0 in enumerate(points[geometry], 1):
            cond = density_maps.conditional_density(kernel, r0, spec)
            checks[f"{geometry}.conditional {idx} integrates to 1"] = (
                abs(cond.integral() - 1.0) <= 1e-10
            )
            values[f"{geometry}.conditional_{idx}"] = _grid_digest(cond.values)
            values[f"{geometry}.conditional_{idx}.maxima"] = density_maps.local_maxima(cond)

        if geometry == "square":
            combos = orbitals.degenerate_superpositions(mos["e"], mos["e'"])
            plus = density_maps.probability_flux(combos["e+ie'"], spec)
            minus = density_maps.probability_flux(combos["e-ie'"], spec)
            opposite = float(abs(plus.values + minus.values).max())
            checks[f"{geometry}.fluxes opposite"] = opposite <= 1e-12
            for tag, flux in (("plus", plus), ("minus", minus)):
                values[f"{geometry}.flux_{tag}"] = _grid_digest(flux.values)
                values[f"{geometry}.divergence_{tag}"] = _grid_digest(
                    density_maps.discrete_divergence(flux)
                )
    return {"checks": checks, "values": values}


def hom(thetas: list[float]) -> dict:
    rendered = hashlib.sha256()
    passed = True
    worst_drift = 0.0
    for theta in thetas:
        for statistics, convention, name in HOM_CASES:
            config = cli.ExperimentConfig(
                statistics=statistics, convention=convention, input=name, theta=theta
            )
            report = cli.run_hom(config)
            rendered.update(report.render().encode())
            passed = passed and report.passed
            for a in report.assertions:
                if a.label == "norm preserved":
                    worst_drift = max(worst_drift, float(a.detail.split()[-1]))
    return {
        "checks": {"every report passes": passed, "norm drift <= 1e-12": worst_drift <= 1e-12},
        "values": {"reports.sha256": rendered.hexdigest(), "operations": len(thetas) * len(HOM_CASES)},
    }


def _parse_points(text: str) -> dict[str, list[tuple[float, float]]]:
    out = {}
    for block in text.split("|"):
        geometry, _, pts = block.partition(":")
        out[geometry] = [tuple(float(v) for v in p.split(",")) for p in pts.split(";")]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="op", required=True)
    p_maps = sub.add_parser("maps")
    p_maps.add_argument("--grid", type=int, required=True)
    p_maps.add_argument("--points", required=True)
    p_hom = sub.add_parser("hom")
    p_hom.add_argument("--thetas", required=True)
    args = parser.parse_args(argv)
    if args.op == "maps":
        result = maps(args.grid, _parse_points(args.points))
    else:
        result = hom([float(t) for t in args.thetas.split(",")])
    print(json.dumps(result))
    return 0 if all(result["checks"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
