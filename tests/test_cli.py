"""Configuration handling, CLI verbs, output files, determinism."""
import contextlib
import errno
import io
import math
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbody import cli, density_maps
from fewbody.cli import (
    AssertionResult,
    ExperimentConfig,
    RunReport,
    _write_csv,
    apply_overrides,
    main,
    parse_config,
    run_density,
    run_verify,
    serialize_config,
)
from fewbody.density_maps import DensityGrid, GridSpec
from fewbody.exact import rational, sqrt_rational
from fewbody.spin_algebra import spin_family
from fewbody.wavefunction_algebra import ReducedDensity

LOW_RES = ["--set", "nx=64", "--set", "ny=64"]


def test_config_round_trip_is_exact() -> None:
    config = ExperimentConfig(
        name="probe",
        geometry="rectangle",
        a=2.0,
        b=2.2,
        c1_phase=math.pi / 8,
        c2_magnitude=1.0,
        c2_phase=-math.pi / 8,
        nx=96,
        ny=128,
        conditioning_points=((1.0, -1.1), (0.3, 0.7)),
        theta=0.7853981634,
    )
    assert parse_config(serialize_config(config)) == config


def test_parse_config_skips_comments_and_blanks() -> None:
    text = "# comment\n\nname = demo\n  a = 1.5\n"
    config = parse_config(text)
    assert config.name == "demo"
    assert config.a == 1.5


def test_parse_config_rejects_unknown_keys_and_bad_lines() -> None:
    with pytest.raises(ValueError):
        parse_config("unknown_key = 1\n")
    with pytest.raises(ValueError):
        parse_config("just words\n")


def test_apply_overrides_coerces_types() -> None:
    config = apply_overrides(
        ExperimentConfig(),
        ["nx=128", "a=3.25", "conditioning_points=0.5,1.5; -1,0"],
    )
    assert config.nx == 128
    assert config.a == 3.25
    assert config.conditioning_points == ((0.5, 1.5), (-1.0, 0.0))
    with pytest.raises(ValueError):
        apply_overrides(ExperimentConfig(), ["bogus=1"])
    with pytest.raises(ValueError):
        apply_overrides(ExperimentConfig(), ["no_equals"])


def test_run_report_rendering() -> None:
    report = RunReport(
        name="demo",
        inputs=(("key", "value"),),
        assertions=(
            AssertionResult("good", True, "fine"),
            AssertionResult("bad", False, "broken"),
        ),
    )
    text = report.render()
    assert "[PASS] good  (fine)" in text
    assert "[FAIL] bad  (broken)" in text
    assert text.endswith("RESULT: FAIL")
    assert not report.passed


HOM_CASES = [
    ("boson", "optical", "HH"),
    ("boson", "optical", "VV"),
    ("boson", "optical", "HV-sym"),
    ("boson", "optical", "HV-antisym"),
    ("fermion", "optical", "HH"),
    ("fermion", "optical", "triplet0"),
    ("fermion", "optical", "singlet"),
    ("boson", "atomic", "aa"),
    ("boson", "atomic", "ab-sym"),
    ("boson", "atomic", "ab-antisym"),
]


@pytest.mark.parametrize("statistics,convention,name", HOM_CASES)
def test_hom_verb_reproduces_reference_outcomes(
    statistics: str, convention: str, name: str, capsys
) -> None:
    code = main(
        [
            "hom",
            "--statistics",
            statistics,
            "--convention",
            convention,
            "--input",
            name,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out
    assert "[FAIL]" not in out


def test_hom_accepts_truncated_balanced_angle(capsys) -> None:
    code = main(
        [
            "hom",
            "--statistics",
            "fermion",
            "--input",
            "singlet",
            "--theta",
            "0.7853981634",
        ]
    )
    assert code == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_hom_eigenstate_input_passes_at_any_angle(capsys) -> None:
    code = main(
        ["hom", "--statistics", "fermion", "--input", "HH", "--theta", "0.9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out


def test_hom_input_aliases_name_equal_states() -> None:
    for statistics in ("boson", "fermion"):
        for convention in ("optical", "atomic"):
            for alias, name in (
                ("singlet", "HV-antisym"),
                ("ab-antisym", "HV-antisym"),
                ("ab-sym", "HV-sym"),
                ("triplet0", "HV-sym"),
                ("aa", "HH"),
                ("bb", "VV"),
            ):
                assert cli._hom_input(statistics, convention, alias) == cli._hom_input(
                    statistics, convention, name
                )


@pytest.mark.parametrize(
    "alias, name",
    [
        ("singlet", "HV-antisym"),
        ("ab-antisym", "HV-antisym"),
        ("ab-sym", "HV-sym"),
        ("triplet0", "HV-sym"),
        ("aa", "HH"),
        ("bb", "VV"),
    ],
)
def test_hom_alias_report_is_its_canonical_inputs_report(alias: str, name: str) -> None:
    # an alias gets its canonical input's reference check; only the name differs
    for statistics in ("boson", "fermion"):
        for convention in ("optical", "atomic"):
            for theta in (math.pi / 4, 0.9):
                reports = [
                    cli.run_hom(
                        ExperimentConfig(
                            statistics=statistics, convention=convention, input=n, theta=theta
                        )
                    ).render()
                    for n in (alias, name)
                ]
                renamed = (
                    reports[0]
                    .replace(f"   input: {alias} = ", f"   input: {name} = ")
                    .replace(f"reference outcome for {alias}  ", f"reference outcome for {name}  ")
                )
                assert renamed == reports[1], (statistics, convention, theta)


def test_unknown_hom_input_raises_on_every_call() -> None:
    for _ in range(3):
        with pytest.raises(ValueError, match="unknown input state 'XX'"):
            cli._hom_input("boson", "optical", "XX")


def test_hom_input_is_unchanged_by_arithmetic_on_it() -> None:
    def snapshot(state):
        return [(occ, repr(amp)) for occ, amp in state.terms]

    first = cli._hom_input("fermion", "optical", "singlet")
    before = snapshot(first)
    other = cli._hom_input("fermion", "optical", "HH")
    results = [first.scaled(-1.0), first + first, first - other]
    assert all(snapshot(r) != before for r in results)
    assert cli.run_hom(ExperimentConfig(statistics="fermion", input="singlet")).passed
    second = cli._hom_input("fermion", "optical", "singlet")
    assert snapshot(first) == snapshot(second) == before


def test_verify_verb_all_green(capsys) -> None:
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 12
    assert "[FAIL]" not in out


def test_verify_reports_exact_prefactors() -> None:
    report = run_verify()
    labels = {a.label: a for a in report.assertions}
    for n in (3, 4):
        entry = labels[f"spin-trace prefactors (n={n})"]
        assert entry.passed
        assert "1.500000" in entry.detail
        assert "-0.866025" in entry.detail


def test_verify_fails_on_a_family_gram_entry_the_prefactors_do_not_read(capsys) -> None:
    # neither printed value reads family 0's (2, 1) entry or the +sqrt3/2 cross
    # entries; as the nearest double (an exact rational) those differ from
    # sqrt3/2 by less than float resolution
    chi0 = spin_family(3, 0)
    real = cli.spin_overlap
    half_root3 = sqrt_rational(3) / 2

    def family_entry(a, b):
        return real(a, b) + (rational(Fraction(1, 10)) if a is chi0[1] and b is chi0[2] else 0)

    def float_cross_entries(a, b):
        value = real(a, b)
        return rational(Fraction(float(half_root3))) if value == half_root3 else value

    for overlap, n4 in ((family_entry, "PASS"), (float_cross_entries, "FAIL")):
        with mock.patch.object(cli, "spin_overlap", overlap):
            assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] spin-trace prefactors (n=3)  (diagonal 1.500000, cross -0.866025)\n" in out
        assert f"[{n4}] spin-trace prefactors (n=4)" in out


def density_args(out_dir: Path, extra: list[str] | None = None) -> list[str]:
    return [
        "density",
        "--geometry",
        "triangle",
        "--name",
        "fig",
        "--output-dir",
        str(out_dir),
        *LOW_RES,
        *(extra or []),
    ]


def test_density_verb_triangle(tmp_path: Path, capsys) -> None:
    code = main(density_args(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out
    for stem in ("fig_single.csv", "fig_single.pgm"):
        assert (tmp_path / stem).exists()
    for idx in (1, 2, 3):  # one conditional map per site center
        assert (tmp_path / f"fig_conditional_{idx}.csv").exists()
        assert (tmp_path / f"fig_conditional_{idx}.ppm").exists()
    header = (tmp_path / "fig_single.csv").read_text().splitlines()[0]
    assert header == "# -6.0 6.0 -6.0 6.0 64 64"
    assert (tmp_path / "fig_single.pgm").read_bytes()[:2] == b"P5"
    assert (tmp_path / "fig_conditional_1.ppm").read_bytes()[:2] == b"P6"


def test_density_verb_is_deterministic(tmp_path: Path, capsys) -> None:
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert main(density_args(dir_a)) == 0
    assert main(density_args(dir_b)) == 0
    capsys.readouterr()
    for name in ("fig_single.csv", "fig_single.pgm", "fig_conditional_2.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


TINY = rational(Fraction(1, 10**13))
#: sqrt3 less the nearest double: exact and nonzero, but its float() is 0.0
BELOW_FLOAT = sqrt_rational(3) - Fraction(float(sqrt_rational(3)))


def _nudged(density: ReducedDensity, amount) -> ReducedDensity:
    """density with its first diagonal coefficient raised by exactly amount."""
    key = next(key for key, _ in density.terms if key[0] == key[1])
    return density + ReducedDensity.from_dict(density.space, {key: amount})


def _nudge_collapse(monkeypatch, amount) -> None:
    collapse = cli.collapsed_trace
    monkeypatch.setattr(cli, "collapsed_trace", lambda state: _nudged(collapse(state), amount))


def _nudge_boson_kernel(monkeypatch, amount) -> None:
    kernel = density_maps.ground_pair_kernel

    def nudged(n, statistics):
        density = kernel(n, statistics)
        return _nudged(density, amount) if statistics == "boson" else density

    monkeypatch.setattr(density_maps, "ground_pair_kernel", nudged)


@pytest.mark.parametrize(
    "nudge,amount,label,deviation",
    [
        (_nudge_collapse, TINY, "dual-construction pair kernels agree", "1.000e-13"),
        (_nudge_boson_kernel, TINY, "statistics-independent pair kernel", "1.000e-13"),
        (_nudge_collapse, BELOW_FLOAT, "dual-construction pair kernels agree", "0.000e+00"),
    ],
    ids=["dual", "statistics", "dual-below-float"],
)
def test_density_kernel_checks_fail_on_an_exact_difference(
    nudge, amount, label: str, deviation: str, tmp_path: Path, capsys, monkeypatch
) -> None:
    # a fermion run compares its kernel with the collapse and the boson kernel;
    # the verdict is exact, the printed deviation a float
    nudge(monkeypatch, amount)
    code = main(["density", "--set", "nx=16", "--set", "ny=16", "--output-dir", str(tmp_path)])
    assert code == 1
    assert f"[FAIL] {label}  (max deviation {deviation})" in capsys.readouterr().out.splitlines()


def test_density_rectangle_defaults_to_four_particles(tmp_path: Path, capsys) -> None:
    code = main(
        [
            "density",
            "--geometry",
            "rectangle",
            "--name",
            "rect",
            "--output-dir",
            str(tmp_path),
            *LOW_RES,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "\n   particles: 4\n" in out and "RESULT: PASS" in out
    assert (tmp_path / "rect_conditional_4.csv").exists()


def test_density_square_writes_opposed_flux_fields(tmp_path: Path, capsys) -> None:
    code = main(
        [
            "density",
            "--geometry",
            "rectangle",
            "--a",
            "2.0",
            "--b",
            "2.0",
            "--name",
            "sq",
            "--output-dir",
            str(tmp_path),
            *LOW_RES,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out
    assert (tmp_path / "sq_flux_plus.csv").exists()
    assert (tmp_path / "sq_flux_minus.csv").exists()
    header = (tmp_path / "sq_flux_plus.csv").read_text().splitlines()[0]
    assert header == "# -6.0 6.0 -6.0 6.0 64 64"


def test_density_near_square_is_a_rectangle(tmp_path: Path, capsys) -> None:
    # sides 1e-9 apart: equal within a relative 1e-9, not within the square's 1e-12
    argv = ["density", "--geometry", "rectangle", "--a", "2", "--b", "2.000000001"]
    code = main([*argv, "--output-dir", str(tmp_path), *LOW_RES])
    captured = capsys.readouterr()
    assert code == 0
    assert "RESULT: PASS" in captured.out
    assert captured.err == ""
    assert not list(tmp_path.glob("*flux*"))


def test_density_balance_assertion(tmp_path: Path, capsys) -> None:
    code = main(
        [
            "density",
            "--geometry",
            "rectangle",
            "--name",
            "bal",
            "--output-dir",
            str(tmp_path),
            *LOW_RES,
            "--set",
            "c2_magnitude=1.0",
            "--set",
            "c1_phase=0.392699",
            "--set",
            "c2_phase=-0.392699",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "densities agree at balance" in out
    assert "RESULT: PASS" in out


@pytest.mark.parametrize(
    "geometry, phase, degenerate",
    [
        ("triangle", "0", "fermion"),
        ("triangle", repr(math.pi / 2), "boson"),
        ("rectangle", "0", "boson"),
        ("rectangle", repr(math.pi / 2), "fermion"),
    ],
)
def test_density_balance_at_zero_norm_phase_cannot_run(
    geometry: str, phase: str, degenerate: str, tmp_path: Path, capsys
) -> None:
    # at the ground assignment Psi1 and Psi2 lie on one ray, so C1 Psi1 + C1* Psi2
    # vanishes for one statistics whenever Re(C1^2) <Psi1|Psi2> = -|C1|^2
    code = main(
        [
            "density",
            "--geometry",
            geometry,
            "--output-dir",
            str(tmp_path),
            "--set",
            "nx=16",
            "--set",
            "ny=16",
            "--set",
            "c2_magnitude=1",
            "--set",
            f"c1_phase={phase}",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert (
        "[FAIL] boson and fermion densities agree at balance  "
        f"(cannot run: C1·Ψ1 + C1*·Ψ2 has zero norm ({degenerate}))"
    ) in out
    assert out.endswith("RESULT: FAIL\n")


@pytest.mark.parametrize("magnitude, phase", [(1e200, "0")], ids=["1e200-phase-0"])
def test_density_balance_does_not_depend_on_the_magnitude_of_c1(
    magnitude: float, phase: str, tmp_path: Path, capsys, monkeypatch
) -> None:
    # the run passes C1 = exp(i c1_phase); scaled so that |C1|^2 overflows, the
    # library takes it at unit modulus and still finds the zero-norm phase
    balance = density_maps.balance_residual
    monkeypatch.setattr(
        density_maps,
        "balance_residual",
        lambda n, mos, c1, configurations: balance(n, mos, magnitude * c1, configurations),
    )
    argv = ["density", "--output-dir", str(tmp_path), "--set", "nx=16", "--set", "ny=16"]
    settings = [f"c1_phase={phase}", "c2_magnitude=1"]
    code = main([*argv, *(arg for s in settings for arg in ("--set", s))])
    out = capsys.readouterr().out
    assert code == 1
    assert (
        "\n[FAIL] boson and fermion densities agree at balance  "
        "(cannot run: C1·Ψ1 + C1*·Ψ2 has zero norm (fermion))\n"
    ) in out


def test_write_csv_matches_repr_of_every_float(tmp_path: Path) -> None:
    spec = GridSpec((-1.5, 0.1 + 0.2), (-6.0, 6.0), (8, 8))
    awkward = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0, 2.5e-17, 1 / 3, 0.0]
    scalar = np.array([np.roll(awkward, i) for i in range(8)])
    flux = np.stack([scalar, -scalar[::-1]], axis=-1)
    header = "# -1.5 0.30000000000000004 -6.0 6.0 8 8"

    _write_csv(DensityGrid(spec, scalar), tmp_path / "scalar.csv")
    expected = [header] + [",".join(repr(float(v)) for v in row) for row in scalar]
    assert (tmp_path / "scalar.csv").read_text() == "\n".join(expected) + "\n"

    _write_csv(DensityGrid(spec, flux), tmp_path / "flux.csv")
    expected = [header] + [
        f"{float(jx)!r},{float(jy)!r}" for row in flux for jx, jy in row
    ]
    assert (tmp_path / "flux.csv").read_text() == "\n".join(expected) + "\n"


def _assert_invalid_input(code: int, capsys, output_dir: Path) -> str:
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("fewbody: error: ")
    assert captured.err.count("\n") == 1
    assert not output_dir.exists()
    return captured.err


def test_density_rejects_mismatched_particle_count(tmp_path: Path, capsys) -> None:
    # the geometry fixes the particle count: no key or flag sets it
    out = tmp_path / "out"
    for count in ("4", "3"):
        argv = ["density", "--geometry", "triangle", "--output-dir", str(out)]
        err = _assert_invalid_input(main([*argv, "--set", f"particles={count}"]), capsys, out)
        assert "unknown config key 'particles'" in err
        err = _assert_invalid_input(main([*argv, "--particles", count]), capsys, out)
        assert "--particles" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--set", "nx=4"],
        ["density", "--a", "-1"],
        ["density", "--set", "x_min=nan"],
        ["hom", "--input", "XX"],
        ["density", "--name", "a/b"],
        ["density", "--name", "../x"],
        ["density", "--a", "1e-9"],
        ["density", "--geometry", "rectangle", "--a", "0.05", "--b", "0.05"],
        ["density", "--geometry", "rectangle", "--a", "0.01", "--b", "0.01"],
        ["density", "--set", "conditioning_points=nan,0"],
        ["density", "--set", "coupling=high"],
        ["density", "--set", "c1_magnitude=1"],
        ["density", "--geometry", "rectangle", "--a", "1e-9", "--b", "1e-9"],
        ["density", "--set", "conditioning_points=1,2,3"],
        ["density", "--set", "conditioning_points=1"],
        ["density", "--set", "conditioning_points=a,b"],
        ["density", "--output-dir", "FILE"],
        ["density", "--output-dir", "FILE/sub"],
        ["density", "--set", "nx=100000", "--set", "ny=100000"],
        ["density", "--set", "x_min=-1e308", "--set", "x_max=1e308"],
        ["density", "--set", "x_min=-8e307", "--set", "x_max=8e307",
         "--set", "y_min=-8e307", "--set", "y_max=8e307"],
        ["density", "--set", "x_min=0", "--set", "x_max=1e-200",
         "--set", "y_min=0", "--set", "y_max=1e-200"],
        ["density", "--name", "a\0b"],
        ["density", "--output-dir", "a\0b"],
        ["density", "--name", "n" * 250],
        ["density", "--output-dir", "TMP/" + "d" * 250],
        ["density", "--name", ""],
        ["hom", "--statistics", "anyon"],
        ["hom", "--convention", "foo"],
        ["hom", "--theta", "abc"],
        ["density", "--geometry", "hexagon"],
        ["density", "--a", "abc"],
        ["density", "--output-dir", ""],
        ["density", "--set", "statistics=anyon"],
        ["density", "--geometry", "rectangle", "--b", "0"],
        ["verify", "--name", "probe"],
        ["hom", "--output-dir", "d"],
    ],
    ids=[
        "nx=4", "a=-1", "x_min=nan", "hom-input-XX", "name-with-slash", "name-with-parent",
        "triangle-a=1e-9", "square-0.05", "square-0.01", "nan-conditioning-point", "coupling",
        "c1_magnitude", "square-1e-9", "three-value-point", "one-value-point", "non-numeric-point",
        "output-dir-is-a-file", "output-dir-under-a-file", "grid-beyond-physical-memory",
        "width-overflows", "area-overflows", "area-underflows", "nul-in-name",
        "nul-in-output-dir", "name-too-long", "output-dir-name-too-long", "empty-name",
        "hom-statistics-anyon", "hom-convention-foo", "hom-theta-abc", "geometry-hexagon",
        "a-abc", "empty-output-dir", "density-statistics-anyon", "rectangle-b=0",
        "verify-name", "hom-output-dir",
    ],
)
def test_invalid_input_exits_2_with_one_line(argv, tmp_path: Path, capsys, recwarn) -> None:
    out = tmp_path / "out"
    existing = tmp_path / "file"
    existing.write_text("kept")
    # a case's own --output-dir comes after this one and wins (on a verb that
    # takes the flag); FILE names an existing file, TMP the directory holding it
    case = argv
    verb, *rest = case
    rest = [arg.replace("FILE", str(existing)).replace("TMP", str(tmp_path)) for arg in rest]
    argv = [verb, *(["--output-dir", str(out)] if "output_dir" in cli.VERB_FLAGS[verb] else [])]
    argv += rest
    err = _assert_invalid_input(main(argv), capsys, out)
    if case[:2] in (["verify", "--name"], ["hom", "--output-dir"]):  # flags that would do nothing
        assert err == f"fewbody: error: {verb} does not take {case[1]!r}\n"
    if any(a.startswith("conditioning_points=") for a in argv):
        assert "conditioning_points" in err
    if "nx=100000" in argv:  # 160 GB per complex array, found before any is allocated
        assert "bytes of physical memory" in err
    if any(a.endswith(("e308", "e307", "e-200")) for a in argv):
        assert "cell area" in err
    if any("\0" in a for a in argv):
        assert "NUL byte" in err
    if any(len(a) > 200 for a in argv):  # the run's file or staging name is 260+ bytes
        assert "-byte limit in" in err
    if argv[-2:] == ["--output-dir", ""]:  # not the working directory, nor the default
        assert err == "fewbody: error: output_dir is empty\n"
    if "c1_magnitude=1" in argv:  # C1 = exp(i c1_phase): it has no magnitude to set
        assert "unknown config key 'c1_magnitude'" in err
    if "abc" in argv:  # a flag's value is coerced, and named, like a --set value
        assert f"{argv[-2][2:]}: could not convert string to float: 'abc'" in err
    assert list(tmp_path.iterdir()) == [existing]
    assert existing.read_text() == "kept"
    assert [str(w.message) for w in recwarn] == []


def test_far_conditioning_point_exits_2_before_writing(tmp_path: Path, capsys) -> None:
    out = tmp_path / "out"
    argv = ["density", "--set", "nx=16", "--set", "ny=16", "--set", "conditioning_points=60,60"]
    _assert_invalid_input(main([*argv, "--output-dir", str(out)]), capsys, out)


def test_other_run_errors_are_not_reported_as_input_errors(monkeypatch) -> None:
    def broken(config):
        raise ValueError("a fault in the run")

    monkeypatch.setattr(cli, "run_verify", broken)
    with pytest.raises(ValueError, match="a fault in the run"):
        main(["verify"])


def test_failed_density_run_adds_no_file_to_the_output_dir(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("from an earlier run")
    calls = []

    def failing_third_csv(grid, path):
        calls.append(path)
        if len(calls) == 3:
            raise RuntimeError("disk full")
        _write_csv(grid, path)

    monkeypatch.setattr(cli, "_write_csv", failing_third_csv)
    with pytest.raises(RuntimeError, match="disk full"):
        main(["density", "--set", "nx=16", "--set", "ny=16", "--output-dir", str(out)])
    capsys.readouterr()
    assert len(calls) == 3
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "from an earlier run"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no staging directory left


def _mkdtemp_denied(monkeypatch) -> None:
    def denied(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", kwargs.get("dir"))

    monkeypatch.setattr(cli.tempfile, "mkdtemp", denied)


def _third_csv_out_of_space(monkeypatch) -> None:
    calls = []

    def write(grid, path):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        _write_csv(grid, path)

    monkeypatch.setattr(cli, "_write_csv", write)


@pytest.mark.parametrize(
    "fault", [_mkdtemp_denied, _third_csv_out_of_space], ids=["mkdtemp", "enospc"]
)
def test_unwritable_output_dir_exits_2_with_one_line(
    fault, tmp_path: Path, capsys, monkeypatch
) -> None:
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("from an earlier run")
    fault(monkeypatch)
    code = main(["density", "--set", "nx=16", "--set", "ny=16", "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("fewbody: error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "from an earlier run"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no staging directory left


def test_density_run_moves_its_files_into_an_existing_output_dir(
    tmp_path: Path, capsys
) -> None:
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("from an earlier run")
    assert main(["density", "--set", "nx=16", "--set", "ny=16", "--output-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    written = [line.split()[-1] for line in stdout.splitlines() if "wrote" in line]
    assert len(written) == 8
    assert all(Path(path).parent == out for path in written)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["kept.txt", *(Path(path).name for path in written)]
    )
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_density_run_renames_its_staging_directory_into_a_new_output_dir(
    tmp_path: Path, capsys
) -> None:
    out = tmp_path / "nested" / "out"
    assert main(["density", "--set", "nx=16", "--set", "ny=16", "--output-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    written = [Path(line.split()[-1]) for line in stdout.splitlines() if "wrote" in line]
    assert sorted(out.iterdir()) == sorted(written)
    sibling = tmp_path / "nested" / "sibling"
    sibling.mkdir()
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(sibling.stat().st_mode)
    assert sorted(p.name for p in out.parent.iterdir()) == ["out", "sibling"]


def _rename_across_devices(monkeypatch) -> None:
    def cross_device(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link", str(dst))

    monkeypatch.setattr(cli.os, "rename", cross_device)


def test_failed_rename_leaves_no_new_output_dir(tmp_path: Path, capsys, monkeypatch) -> None:
    _rename_across_devices(monkeypatch)
    out = tmp_path / "out"
    code = main(["density", "--set", "nx=16", "--set", "ny=16", "--output-dir", str(out)])
    _assert_invalid_input(code, capsys, out)
    assert list(tmp_path.iterdir()) == []  # no staging directory left


@pytest.mark.parametrize(
    "fault,more",
    [
        (_third_csv_out_of_space, []),
        (_rename_across_devices, []),
        # the first conditional map is written before the last one fails
        (None, ["--set", "conditioning_points=0,1; 60,60"]),
    ],
    ids=["enospc", "rename", "vanishing-marginal-at-the-last-point"],
)
def test_failed_run_into_new_parents_leaves_nothing(
    fault, more, tmp_path: Path, capsys, monkeypatch
) -> None:
    """The parents of a new output directory are made only at the commit,
    and removed again when the rename fails."""
    if fault is not None:
        fault(monkeypatch)
    out = tmp_path / "new" / "deep" / "out"
    argv = ["density", "--set", "nx=16", "--set", "ny=16", *more, "--output-dir", str(out)]
    _assert_invalid_input(main(argv), capsys, out)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["set", "config"])
def test_empty_output_dir_is_an_input_error(
    source: str, tmp_path: Path, capsys, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEWBODY_OUTPUT_DIR", raising=False)
    if source == "set":
        more = ["--set", "output_dir="]
    else:
        Path("run.cfg").write_text("output_dir =\n")
        more = ["--config", "run.cfg"]
    before = sorted(os.listdir())
    code = main(["density", "--set", "nx=16", "--set", "ny=16", *more])
    assert _assert_invalid_input(code, capsys, tmp_path / "out") == (
        "fewbody: error: output_dir is empty\n"
    )
    assert sorted(os.listdir()) == before  # nothing in the working directory


def test_empty_environment_output_dir_is_ignored(monkeypatch) -> None:
    monkeypatch.setenv("FEWBODY_OUTPUT_DIR", "")
    config = cli._read_argv(["density"])[1]
    assert config.output_dir == ExperimentConfig().output_dir


def test_environment_variable_overrides_output_dir(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("FEWBODY_OUTPUT_DIR", str(env_dir))
    code = main(["density", "--geometry", "triangle", "--name", "env", *LOW_RES])
    capsys.readouterr()
    assert code == 0
    assert (env_dir / "env_single.csv").exists()


def test_explicit_output_dir_beats_environment(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    monkeypatch.setenv("FEWBODY_OUTPUT_DIR", str(tmp_path / "ignored"))
    explicit = tmp_path / "explicit"
    code = main(density_args(explicit))
    capsys.readouterr()
    assert code == 0
    assert (explicit / "fig_single.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_file_feeds_the_run(tmp_path: Path, capsys) -> None:
    config = ExperimentConfig(
        name="filed", geometry="triangle", nx=64, ny=64, output_dir=str(tmp_path)
    )
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(config))
    code = main(["density", "--config", str(path)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "filed_single.csv").exists()


def test_sources_apply_in_order(tmp_path: Path, monkeypatch) -> None:
    """defaults < --config file < --set < FEWBODY_OUTPUT_DIR < flags"""
    path = tmp_path / "run.cfg"
    path.write_text("name = from_file\noutput_dir = file_dir\n")
    monkeypatch.delenv("FEWBODY_OUTPUT_DIR", raising=False)
    layers = [
        (["--config", str(path)], "from_file", "file_dir"),
        (["--set", "name=from_set", "--set", "output_dir=set_dir"], "from_set", "set_dir"),
        ([], "from_set", "env_dir"),
        (["--name", "from_flag", "--output-dir", "flag_dir"], "from_flag", "flag_dir"),
    ]
    argv = ["density"]
    for step, (more, name, output_dir) in enumerate(layers):
        argv += more
        if step == 2:
            monkeypatch.setenv("FEWBODY_OUTPUT_DIR", "env_dir")
        config = cli._read_argv(argv)[1]
        assert (config.name, config.output_dir) == (name, output_dir)
    # the order of the tokens does not matter: a flag before --set still wins
    flag_first = ["density", "--name", "from_flag", "--set", "name=from_set"]
    assert cli._read_argv(flag_first)[1].name == "from_flag"


@pytest.mark.parametrize(
    "flag,pair",
    [(["--a", "2.5"], "a=2.5"), (["--name", " padded "], "name= padded ")],
    ids=["a", "stripped-name"],
)
def test_flag_and_set_give_equal_configs(flag: list[str], pair: str) -> None:
    by_flag = cli._read_argv(["density", *flag])[1]
    by_set = cli._read_argv(["density", "--set", pair])[1]
    assert by_flag == by_set != ExperimentConfig()


@pytest.mark.parametrize("argv", [["-h"], ["density", "--help"]], ids=["-h", "density-help"])
def test_help_lists_every_flag_and_word(argv: list[str], capsys) -> None:
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    flags = {f"--{key.replace('_', '-')}" for keys in cli.VERB_FLAGS.values() for key in keys}
    words = ("fermion", "boson", "optical", "atomic", "triangle", "rectangle")
    for word in (*flags, "--config", "--set", *words, *cli.HOM_INPUTS, *cli.HOM_ALIASES):
        assert word in captured.out
    assert "\n  verify: (no flags)\n" in captured.out
    assert captured.out == cli.HELP + "\n"


@pytest.mark.parametrize(
    "argv, code",
    [(["verify"], 0), (["-h"], 0), (["density", "--a", "1e300", "--set", "nx=16"], 1)],
    ids=["verify", "help", "failing-density"],
)
def test_a_closed_pipe_keeps_the_exit_code_and_prints_no_error(
    argv: list[str], code: int, tmp_path: Path
) -> None:
    # the reader has closed its end before the run prints (as `| head -1`
    # may): the report goes nowhere, and the run's own code stands
    read, write = os.pipe()
    os.close(read)
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    env.pop("FEWBODY_OUTPUT_DIR", None)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "fewbody.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
        )
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (code, "")


@pytest.mark.parametrize("n", [3, 4])
def test_balance_configurations_are_the_seed_1_draws(n: int) -> None:
    rng = np.random.default_rng(1)
    drawn = [[tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(n)] for _ in range(6)]
    config = ExperimentConfig(c2_magnitude=1.0)
    with mock.patch.object(density_maps, "balance_residual", return_value=0.0) as check:
        cli._balance_residual(config, n, {})
    ((_, _, _, configurations), _) = check.call_args
    assert configurations == drawn
    assert all(type(x) is float for points in configurations for p in points for x in p)


def test_a_density_run_leaves_out_numpy_random(tmp_path: Path) -> None:
    argv = ["density", "--output-dir", str(tmp_path), "--set", "nx=16", "--set", "ny=16",
            "--set", "c2_magnitude=1", "--set", "c1_phase=0.39"]
    code = (
        "import contextlib, io, sys\n"
        "from fewbody.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "0 False\n")


def test_importing_the_cli_leaves_out_argparse() -> None:
    code = "import sys, fewbody.cli\nprint('argparse' in sys.modules)\n"
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "False\n")


# -- every input, every source ---------------------------------------------

JUNK = st.text(alphabet="ab01.,;-+eE_ /\\\0\t#=x", max_size=10)
WILD_NUMBERS = st.one_of(
    st.floats().map(repr),  # finite, non-finite, huge, tiny and negative
    st.sampled_from(["1e400", "-1e400", "5e-324", "-0", "1_0", "0x1p3", " 2 "]),
    JUNK,
)


def _number(low: float, high: float):
    return st.one_of(st.floats(low, high).map(repr), WILD_NUMBERS)


def _word(*valid: str):
    return st.one_of(st.sampled_from(valid), JUNK)


_POINTS = st.lists(st.tuples(_number(-3, 3), _number(-3, 3)), max_size=3).map(
    lambda points: "; ".join(f"{x},{y}" for x, y in points)
)
_CELLS = st.one_of(  # at most 32 per axis, so a run stays small
    st.integers(8, 32).map(str),
    st.integers(-2, 7).map(str),
    st.sampled_from(["", "16.0", "1e1", "abc", " 16 ", "1_6"]),
)
VALUE_TEXT = {
    "name": _word("experiment", "..", "a/b", "n" * 250),
    "geometry": _word("triangle", "rectangle"),
    "a": _number(0.5, 5),
    "h": _number(0.5, 5),
    "b": _number(0.5, 5),
    "statistics": _word("fermion", "boson"),
    "c1_phase": _number(-7, 7),
    "c2_magnitude": _number(-2, 2),
    "c2_phase": _number(-7, 7),
    "x_min": _number(-8, 0),
    "x_max": _number(0, 8),
    "y_min": _number(-8, 0),
    "y_max": _number(0, 8),
    "nx": _CELLS,
    "ny": _CELLS,
    "conditioning_points": st.one_of(_POINTS, JUNK),
    # relative, so that every run writes inside its own directory; FILE is a file
    "output_dir": st.sampled_from(["out", "a/b", "", " ", ".", "FILE", "FILE/sub", "d" * 250]),
    "input": _word(*cli.HOM_INPUTS, *cli.HOM_ALIASES),
    "convention": _word("optical", "atomic"),
    "theta": _number(0, 3.2),
}
FLAGS = {
    "hom": {"name", "statistics", "input", "convention", "theta"},
    "density": {"name", "output_dir", "geometry", "a", "h", "b"},
    "verify": set(),  # verify reads no key, and writes no file
}


def test_value_strategies_cover_every_key() -> None:
    assert set(VALUE_TEXT) == {f.name for f in fields(ExperimentConfig)}
    assert FLAGS == {verb: set(keys) for verb, keys in cli.VERB_FLAGS.items()}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FLAGS)), st.data())
def test_every_configuration_exits_0_1_or_2(verb: str, data) -> None:
    """From any source, a value gives exit 0 or 1, or exit 2 with one
    stderr line and nothing written; never a traceback or a warning."""
    flags = sorted(FLAGS[verb])  # sampled_from([]) raises: verify has no flag
    flagged = set()
    if flags:
        flagged = data.draw(st.sets(st.sampled_from(flags), max_size=3), "flag keys")
    others = sorted(set(VALUE_TEXT) - FLAGS[verb])
    keys = flagged | data.draw(st.sets(st.sampled_from(others), max_size=3), "keys") | {"nx", "ny"}
    config_lines, argv = [], [verb]
    for key in sorted(keys):
        value = data.draw(VALUE_TEXT[key], key).replace("FILE", "file")
        sources = ["flag", "set", "config"] if key in flagged else ["set", "config"]
        source = data.draw(st.sampled_from(sources), f"{key} source")
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        elif source == "set":
            argv.append(f"--set={key}={value}")
        else:
            config_lines.append(f"{key} = {value}")
    if config_lines:
        argv += ["--config", "run.cfg"]
    _assert_defined_outcome(argv, config_lines)


def _assert_defined_outcome(argv: list[str], config_lines: list[str]) -> None:
    """main(argv), run in a new directory that holds a file `file` (and
    run.cfg, from config_lines), gives exit 0 or 1, or exit 2 with one
    stderr line and nothing written; never a traceback or a warning."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        run_dir = stack.enter_context(tempfile.TemporaryDirectory())
        stack.callback(os.chdir, os.getcwd())
        os.chdir(run_dir)
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop("FEWBODY_OUTPUT_DIR", None)
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        Path("file").write_text("kept")
        if config_lines:
            Path("run.cfg").write_text("\n".join(config_lines) + "\n")
        before = sorted(os.listdir())
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        after = sorted(os.listdir())
    err = stderr.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("fewbody: error: ") and err.count("\n") == 1, err
        assert stdout.getvalue() == ""
        assert after == before
    else:
        assert err == ""


#: flags of every verb, and flags no verb takes
ANY_FLAG = st.sampled_from(
    sorted({f"--{key.replace('_', '-')}" for keys in FLAGS.values() for key in keys})
    + ["--config", "--set", "--bogus", "--particles", "--geo", "--", "-x"]
)
#: values that start with "-", plain values, and --set values with or without "="
ANY_VALUE = st.sampled_from(["-1e5", "-inf", "--x", "-", "1", "0.5", "triangle", "nx", "a=1", ""])
ARGV_PIECES = st.one_of(
    st.tuples(ANY_FLAG, ANY_VALUE).map(list),  # a flag and a value
    st.tuples(ANY_FLAG, ANY_VALUE).map(lambda pair: ["=".join(pair)]),  # --flag=value
    ANY_FLAG.map(lambda flag: [flag]),  # a flag with no value, at the end or not
    st.sampled_from(["extra", "density", "a=1", "-1e5"]).map(lambda word: [word]),  # stray
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([[], [""], ["frob"], ["--set"], ["-1e5"], *([verb] for verb in FLAGS)]),
    st.lists(ARGV_PIECES, max_size=3),
)
def test_every_argv_shape_exits_0_1_or_2(verb: list[str], pieces: list[list[str]]) -> None:
    """No verb, an unknown verb or flag, another verb's flag, a flag with no
    value, a value that starts with "-", a stray word: none gives a
    traceback, a SystemExit or more than one line of error."""
    grid = ["--set", "nx=16", "--set", "ny=16"]
    _assert_defined_outcome([*verb, *grid, *(token for piece in pieces for token in piece)], [])
