"""Configuration handling, CLI verbs, output files, determinism."""
import math
from pathlib import Path

import numpy as np
import pytest

from fewbody import cli
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

LOW_RES = ["--set", "nx=64", "--set", "ny=64"]


def test_config_round_trip_is_exact() -> None:
    config = ExperimentConfig(
        name="probe",
        geometry="rectangle",
        a=2.0,
        b=2.2,
        c1_magnitude=0.1,
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


BALANCED = "[PASS] boson and fermion densities agree at balance  (max deviation 6.776e-21)"
ZERO_NORM = (
    "[FAIL] boson and fermion densities agree at balance  "
    "(cannot run: C1·Ψ1 + C1*·Ψ2 has zero norm (fermion))"
)


@pytest.mark.parametrize(
    "magnitude, phase, line",
    [
        ("1", "0.39", BALANCED),
        ("1e200", "0.39", BALANCED),
        ("-3", "0.39", BALANCED),
        ("5e-324", "0.39", BALANCED),
        ("1e200", "0", ZERO_NORM),
        ("0", "0.39", ZERO_NORM),
    ],
    ids=["1", "1e200", "-3", "5e-324", "1e200-phase-0", "0"],
)
def test_density_balance_does_not_depend_on_the_magnitude_of_c1(
    magnitude: str, phase: str, line: str, tmp_path: Path, capsys
) -> None:
    # |C1|^2 of 1e200 overflows; the check runs at |C1| = 1 and the phase
    argv = ["density", "--output-dir", str(tmp_path), "--set", "nx=16", "--set", "ny=16"]
    settings = [f"c1_magnitude={magnitude}", f"c1_phase={phase}", "c2_magnitude=1"]
    code = main([*argv, *(arg for s in settings for arg in ("--set", s))])
    out = capsys.readouterr().out
    assert code == (0 if line == BALANCED else 1)
    assert f"\n{line}\n" in out


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
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--particles", count])
        assert exc.value.code == 2
        assert "unrecognized arguments: --particles" in capsys.readouterr().err
        assert not out.exists()


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
    ],
    ids=[
        "nx=4", "a=-1", "x_min=nan", "hom-input-XX", "name-with-slash", "name-with-parent",
        "triangle-a=1e-9", "square-0.05", "square-0.01", "nan-conditioning-point", "coupling",
        "square-1e-9", "three-value-point", "one-value-point", "non-numeric-point",
        "output-dir-is-a-file", "output-dir-under-a-file", "grid-beyond-physical-memory",
        "width-overflows", "area-overflows", "area-underflows", "nul-in-name",
        "nul-in-output-dir", "name-too-long", "output-dir-name-too-long",
    ],
)
def test_invalid_input_exits_2_with_one_line(argv, tmp_path: Path, capsys, recwarn) -> None:
    out = tmp_path / "out"
    existing = tmp_path / "file"
    existing.write_text("kept")
    # a case's own --output-dir comes later and wins; FILE names an existing
    # file, TMP the directory holding it
    rest = [arg.replace("FILE", str(existing)).replace("TMP", str(tmp_path)) for arg in argv[1:]]
    argv = [argv[0], "--output-dir", str(out), *rest]
    err = _assert_invalid_input(main(argv), capsys, out)
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
