"""End-to-end byte identity of the `density`, `hom` and `verify` verbs and of the grid maps.

Small runs are pinned by the sha256 and byte count of every file they write
and by their full rendered stdout.  The 16x16 values were recorded from the
code before the exact-layer caches and the streaming CSV writer went in; the
17x17 values and the library-level map hashes were recorded before orbitals
and real kernels were evaluated in float64 and orbital grids were cached.  At
an odd resolution a symmetry axis lies on grid points, where an orbital is
exactly zero, so a change in the sign of a zero shows here too.  Any change
to a written float, a file name or a printed check line fails here.  The
`hom` reports were recorded before the four sparse state types were folded
into one; the angles include 0 and pi/2, where the splitter output carries
signed-zero amplitudes that the report prints as `+0.000000i`/`-0.000000i`.
The maps on the 64x48 asymmetric grid were recorded before orbitals were
evaluated on the open mesh (x of shape (nx, 1), y of shape (1, ny)).
They are checked again with the grid split into row tiles of three rows.
The `verify` stdout was recorded before the library API that no verb uses
was cut from spin_algebra, symmetric_group and wavefunction_algebra.
The odd balanced-square run is repeated in a CLI process pinned to one CPU
and in one that formats each CSV in blocks of three values, so that block
edges fall inside rows.
Refactors that keep the output contract must keep these green.
"""
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fewbody
from fewbody import density_maps, grid_tiles, orbitals
from fewbody.cli import ExperimentConfig, main, run_hom

GRID_16 = ["--set", "nx=16", "--set", "ny=16", "--output-dir", "out"]

TRIANGLE_ARGS = ["density", *GRID_16]

TRIANGLE_STDOUT = """\
== density:experiment ==
   geometry: triangle
   dimensions: a=2 h=2.5
   particles: 3
   grid: 16x16
[PASS] single density integrates to 1  (integral 1.000000)
[PASS] dual-construction pair kernels agree  (max deviation 0.000e+00)
[PASS] statistics-independent pair kernel  (max deviation 0.000e+00)
[PASS] antibunched at all qualifying points  (max ratio 0.749973 at (-1.125, 1.125))
[PASS] conditional map 1 integrates to 1  (conditioned at (0, 2.5))
[PASS] conditional map 2 integrates to 1  (conditioned at (-1, 0))
[PASS] conditional map 3 integrates to 1  (conditioned at (1, 0))
   antibunching points checked = 140
   wrote out/experiment_single.csv
   wrote out/experiment_single.pgm
   wrote out/experiment_conditional_1.csv
   wrote out/experiment_conditional_1.ppm
   wrote out/experiment_conditional_2.csv
   wrote out/experiment_conditional_2.ppm
   wrote out/experiment_conditional_3.csv
   wrote out/experiment_conditional_3.ppm
RESULT: PASS
"""

TRIANGLE_FILES = {
    "experiment_conditional_1.csv": (5648, "bf65a4f5c44b3207c5864c21b4280a5c2a54d5de71b37093ba12d20baa8f1559"),
    "experiment_conditional_1.ppm": (781, "9a392ad2744d616d0c9fc484577bc70d58fefa8f127f070f0f3f1241cd9ddb0c"),
    "experiment_conditional_2.csv": (5667, "7633c3e46d654fa2656798722201890f36ac8ef0f1462a08c2ebfde269e171be"),
    "experiment_conditional_2.ppm": (781, "17d7e799800a3dc26d5a58a830ab205f44b140d8cbbcdd475f1b7f08bb681494"),
    "experiment_conditional_3.csv": (5667, "7633c3e46d654fa2656798722201890f36ac8ef0f1462a08c2ebfde269e171be"),
    "experiment_conditional_3.ppm": (781, "f81212fc48ddc94c55c1e3206474e2841a8af6d8dc308ee35b9124b80d3df087"),
    "experiment_single.csv": (5627, "a6835b2c1ce9546f42842f14aa5e8fb0ecbd9ddc997814c8a51cc5b6c44d3b84"),
    "experiment_single.pgm": (269, "41086ea0944712e8b7ff81bd7d21a60c823dd1f946fd7421cbd3e1c4e4ee11c6"),
}

SQUARE_ARGS = [
    "density", "--geometry", "rectangle", "--a", "2", "--b", "2",
    "--set", "c2_magnitude=1", "--set", "c1_phase=0.39", "--set", "c2_phase=-0.39",
    *GRID_16,
]

SQUARE_STDOUT = """\
== density:experiment ==
   geometry: rectangle
   dimensions: a=2 b=2
   particles: 4
   grid: 16x16
[PASS] single density integrates to 1  (integral 1.000000)
[PASS] dual-construction pair kernels agree  (max deviation 0.000e+00)
[PASS] statistics-independent pair kernel  (max deviation 0.000e+00)
[PASS] antibunched at all qualifying points  (max ratio 0.666667 at (-4.875, -0.375))
[PASS] conditional map 1 integrates to 1  (conditioned at (-1, 1))
[PASS] conditional map 2 integrates to 1  (conditioned at (1, 1))
[PASS] conditional map 3 integrates to 1  (conditioned at (1, -1))
[PASS] conditional map 4 integrates to 1  (conditioned at (-1, -1))
[PASS] flux fields of conjugate combinations are opposite  (max |j+ + j-| = 0.000e+00)
[PASS] boson and fermion densities agree at balance  (max deviation 2.118e-22)
   antibunching points checked = 156
   wrote out/experiment_single.csv
   wrote out/experiment_single.pgm
   wrote out/experiment_conditional_1.csv
   wrote out/experiment_conditional_1.ppm
   wrote out/experiment_conditional_2.csv
   wrote out/experiment_conditional_2.ppm
   wrote out/experiment_conditional_3.csv
   wrote out/experiment_conditional_3.ppm
   wrote out/experiment_conditional_4.csv
   wrote out/experiment_conditional_4.ppm
   wrote out/experiment_flux_plus.csv
   wrote out/experiment_flux_plus.pgm
   wrote out/experiment_flux_minus.csv
   wrote out/experiment_flux_minus.pgm
RESULT: PASS
"""

SQUARE_FILES = {
    "experiment_conditional_1.csv": (5662, "6d436e22753db8eca35b95641374bee1398c16819e924f1316b9cdb8de3f3f63"),
    "experiment_conditional_1.ppm": (781, "e4a444af57890ee83f3c0ad0d9e4eb5a394c77495e0764854b5fb8a53c04a6a9"),
    "experiment_conditional_2.csv": (5676, "442387703f2bfc64229f34dec2940e0e7aaa5a30114a76101616da2414f7db34"),
    "experiment_conditional_2.ppm": (781, "01fd74bdc5b3d7248420eb4e4b807aeea666aac7a4ecde787c4cf1346ad0c3cb"),
    "experiment_conditional_3.csv": (5669, "1afea9ddd73a31f677ed04651777d02c8259c8a2bea8a1803508d325cd70bff0"),
    "experiment_conditional_3.ppm": (781, "82e236713d5734ddaf78e74524f7caa9825472ca137cf759600b02d3c8db15b5"),
    "experiment_conditional_4.csv": (5667, "8627a17908b5add87caf82442514c5e62c8028a9aa2d4fda103955b7282616da"),
    "experiment_conditional_4.ppm": (781, "f8ba2fdf5298bc944ff29af7589ec39d204c617580ec7b886391f41ac27ca448"),
    "experiment_flux_minus.csv": (11645, "5c41c81071d7d2fb039133c82121ed6fd5b6b778dc114b93c1cc74d99fb238c1"),
    "experiment_flux_minus.pgm": (269, "572eed54658c85380be78bf5c7b062fa38c9ec1e657703ab7e551eb537cc0bec"),
    "experiment_flux_plus.csv": (11645, "4e16ca5e0554563575b5146bceffb945ad999283734cf36d8a4ec4ce5fd137c7"),
    "experiment_flux_plus.pgm": (269, "572eed54658c85380be78bf5c7b062fa38c9ec1e657703ab7e551eb537cc0bec"),
    "experiment_single.csv": (5688, "1cad3a3f071c65b936c39f33e6df3670a2caf5fbb6791a39dadbff855ed2fbb4"),
    "experiment_single.pgm": (269, "731863906f64a88892b540df6deff906901ffa67aee79ea9793e18add9a78a22"),
}


GRID_17 = ["--set", "nx=17", "--set", "ny=17", "--output-dir", "out"]

TRIANGLE_17_ARGS = ["density", *GRID_17]

TRIANGLE_17_STDOUT = """\
== density:experiment ==
   geometry: triangle
   dimensions: a=2 h=2.5
   particles: 3
   grid: 17x17
[PASS] single density integrates to 1  (integral 1.000000)
[PASS] dual-construction pair kernels agree  (max deviation 0.000e+00)
[PASS] statistics-independent pair kernel  (max deviation 0.000e+00)
[PASS] antibunched at all qualifying points  (max ratio 0.750000 at (-3.5294117647058822, 2.1176470588235308))
[PASS] conditional map 1 integrates to 1  (conditioned at (0, 2.5))
[PASS] conditional map 2 integrates to 1  (conditioned at (-1, 0))
[PASS] conditional map 3 integrates to 1  (conditioned at (1, 0))
   antibunching points checked = 160
   wrote out/experiment_single.csv
   wrote out/experiment_single.pgm
   wrote out/experiment_conditional_1.csv
   wrote out/experiment_conditional_1.ppm
   wrote out/experiment_conditional_2.csv
   wrote out/experiment_conditional_2.ppm
   wrote out/experiment_conditional_3.csv
   wrote out/experiment_conditional_3.ppm
RESULT: PASS
"""

TRIANGLE_17_FILES = {
    "experiment_conditional_1.csv": (6382, "e6dcc4c0254d54e3a1d0e8ad6c8cf6e83d25c46dc3e2bc7b054a6034ab77309e"),
    "experiment_conditional_1.ppm": (880, "db922c157d8397fea8666836eddd7d044ae4031391844e1e71a3e7302e9fabfb"),
    "experiment_conditional_2.csv": (6415, "2ddb76ff4fa5afd95f60088a7f8cee8c03710a2154e6651458647c23ab292c12"),
    "experiment_conditional_2.ppm": (880, "06afedfc8a985417cd8f02ae094315e6f9230de3649fa17595230cec34fd3634"),
    "experiment_conditional_3.csv": (6415, "2ddb76ff4fa5afd95f60088a7f8cee8c03710a2154e6651458647c23ab292c12"),
    "experiment_conditional_3.ppm": (880, "f407c73bfd3366d73d38713dbab248b5b0b5f3fe0f2cd81dd9f8cdf8a5b548d1"),
    "experiment_single.csv": (6404, "bdab817e765ecbdad78c6e514312bc433f5dad7ebd8640bab29b1816beb4c899"),
    "experiment_single.pgm": (302, "460cc3879ca148802fecde1318443c1b9596fe9f2742a2dc6e8f8a9a0c4b1f5c"),
}

SQUARE_17_ARGS = [*SQUARE_ARGS[: -len(GRID_16)], *GRID_17]

SQUARE_17_STDOUT = """\
== density:experiment ==
   geometry: rectangle
   dimensions: a=2 b=2
   particles: 4
   grid: 17x17
[PASS] single density integrates to 1  (integral 1.000000)
[PASS] dual-construction pair kernels agree  (max deviation 0.000e+00)
[PASS] statistics-independent pair kernel  (max deviation 0.000e+00)
[PASS] antibunched at all qualifying points  (max ratio 0.666667 at (-4.9411764705882355, 0.7058823529411766))
[PASS] conditional map 1 integrates to 1  (conditioned at (-1, 1))
[PASS] conditional map 2 integrates to 1  (conditioned at (1, 1))
[PASS] conditional map 3 integrates to 1  (conditioned at (1, -1))
[PASS] conditional map 4 integrates to 1  (conditioned at (-1, -1))
[PASS] flux fields of conjugate combinations are opposite  (max |j+ + j-| = 0.000e+00)
[PASS] boson and fermion densities agree at balance  (max deviation 2.118e-22)
   antibunching points checked = 167
   wrote out/experiment_single.csv
   wrote out/experiment_single.pgm
   wrote out/experiment_conditional_1.csv
   wrote out/experiment_conditional_1.ppm
   wrote out/experiment_conditional_2.csv
   wrote out/experiment_conditional_2.ppm
   wrote out/experiment_conditional_3.csv
   wrote out/experiment_conditional_3.ppm
   wrote out/experiment_conditional_4.csv
   wrote out/experiment_conditional_4.ppm
   wrote out/experiment_flux_plus.csv
   wrote out/experiment_flux_plus.pgm
   wrote out/experiment_flux_minus.csv
   wrote out/experiment_flux_minus.pgm
RESULT: PASS
"""

SQUARE_17_FILES = {
    "experiment_conditional_1.csv": (6384, "0233a3c16adc0c8344998c28ba68ae9f4d9b6785142e014a06c9f228a5edd18d"),
    "experiment_conditional_1.ppm": (880, "eacea3c4759846fff343d731ce40ac0d6f956bbf4dd33e6653fe6d2f9ef00655"),
    "experiment_conditional_2.csv": (6382, "8df4b50b0c429985dd50f3f98380d128bed0c3405930503c879873fa4dd1089b"),
    "experiment_conditional_2.ppm": (880, "258d36baa11e242a521628f4c70dea5bb18fced5a9423bd43f813bc6aa23dc6e"),
    "experiment_conditional_3.csv": (6374, "e0e6ff15b1bcf9207bee2821321ea0e5ae9189bc6477e7dffd17b0cb60094665"),
    "experiment_conditional_3.ppm": (880, "a67d14490fbbbd0863b9ecdd9589072c0ff030b760e25f42fe222b7da09a83bf"),
    "experiment_conditional_4.csv": (6378, "611af07e15bef9dec94d5678f16e2af00441493a78469eec94a7e8d91cafe071"),
    "experiment_conditional_4.ppm": (880, "75316ff74481f1066d2e85c02f9fd25f3d70542a78f77dc8625331b0c08f6341"),
    "experiment_flux_minus.csv": (12665, "ee45fae383cfdb3f7cb7ed4159abdac6a3899d647f16d57cc695f0acc4baa613"),
    "experiment_flux_minus.pgm": (302, "9f2be090524ee3a25152c08b28206b862ada2244f9b9325759b178c13a12d1fe"),
    "experiment_flux_plus.csv": (12661, "f6b6ff259fc2b8f96f1b9dfa036cd5b3257b7baa5ada594a0e20c8f147eb03f0"),
    "experiment_flux_plus.pgm": (302, "9f2be090524ee3a25152c08b28206b862ada2244f9b9325759b178c13a12d1fe"),
    "experiment_single.csv": (6347, "a8577354a400e957c546b0916f8ca111a57346b7e642e4a8e74818a45ced4e3c"),
    "experiment_single.pgm": (302, "209d0cee36a0b9b9f8cde7f7c3e704a794ef3a751516860385d44268b233d45d"),
}


@pytest.mark.parametrize(
    "argv, stdout, files",
    [
        (TRIANGLE_ARGS, TRIANGLE_STDOUT, TRIANGLE_FILES),
        (SQUARE_ARGS, SQUARE_STDOUT, SQUARE_FILES),
        (TRIANGLE_17_ARGS, TRIANGLE_17_STDOUT, TRIANGLE_17_FILES),
        (SQUARE_17_ARGS, SQUARE_17_STDOUT, SQUARE_17_FILES),
    ],
    ids=["triangle", "square-balanced", "triangle-odd", "square-balanced-odd"],
)
def test_density_outputs_are_byte_identical(
    argv, stdout, files, tmp_path: Path, capsys, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEWBODY_OUTPUT_DIR", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    assert _written(tmp_path / "out") == files


def _written(out_dir: Path) -> dict[str, tuple[int, str]]:
    written = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        written[path.name] = (len(data), hashlib.sha256(data).hexdigest())
    return written


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# a CLI process that formats each CSV in blocks of three values
THREE_BLOCKS = "import sys, fewbody.cli as cli; cli.CSV_CHUNK = 3; sys.exit(cli.main())"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("blocks", ["one-cpu", "three-blocks"])
def test_density_process_writes_the_same_bytes(blocks: str, tmp_path: Path) -> None:
    # one CPU: the grid tiles run on one thread; three blocks: the CSV text
    # is formatted three values at a time
    path = [str(Path(fewbody.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    env.pop("FEWBODY_OUTPUT_DIR", None)
    if blocks == "one-cpu":
        argv, pin = ["-m", "fewbody.cli"], _pin_to_one_cpu
    else:
        argv, pin = ["-c", THREE_BLOCKS], None
    run = subprocess.run(
        [sys.executable, *argv, *SQUARE_17_ARGS],
        cwd=tmp_path, env=env, capture_output=True, text=True, preexec_fn=pin,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == SQUARE_17_STDOUT
    assert _written(tmp_path / "out") == SQUARE_17_FILES


# sha256 of the float64 bytes of every map at 33x33, by geometry
MAP_HASHES = {
    "triangle": {
        "single": "de79c5b413534c0ff05f7ed5e9a1a1972a7582ffd7171ee5e33fd115c9ab501a",
        "antibunching": "6f1f979026b2eaee55685946786c8d40f1be4957c50ce8bbf920f07dc151108d",
        "conditional_A": "e2cd8d0d119be3da14949f92f8c76b17d61d5143491f3942bfc45c78919b214d",
        "conditional_B": "5fa5ee4f16d77ab775baafea5f2e2a42985b6e7212aadac3ff14a278e9c530e4",
        "conditional_C": "5fa5ee4f16d77ab775baafea5f2e2a42985b6e7212aadac3ff14a278e9c530e4",
        "flux_e": "93a010c8e004aaa1cc51bf71b1b20097a1e15bc5a488b716c9aaf26270d4c924",
        "flux_e'": "adb12b1b46d0ca83efb3d036411e5eedfdbea61dfc70f29c2302e73c68df224a",
    },
    "square": {
        "single": "87bb10f4291b4d67bd82e84e0e743a0dce507d41c2c2b5b971baec49aa040e47",
        "antibunching": "61034e04ed285ba76bc3923c4a8789ced95c5df3739946bb9fb6bac26f000713",
        "conditional_A": "1c7a31f7764b789245b2259755c1b3ec5804e6ffa16eb3d8a117e9775948ab59",
        "conditional_B": "ea51cf527682a93aa439a0c47fd14d16021c270bc4bf8ae37b8696d4c974075c",
        "conditional_C": "948846b2f875d342c466c7ba9949643af8433a4e166b7613aabd2a9ea050c87e",
        "conditional_D": "d3f34e5326da7f88db189059301247a5a19fcb8f375f03b8c9ae5f56d6af565e",
        "flux_e+ie'": "a358a149b6cc2bdc59cf4dbc544f5e41818d21d88da46a0b7a1100e6180c5db2",
        "flux_e-ie'": "fb2b38d0009854673fcd172a2dda5e8e67268869c2bb89616d305853920b2da1",
    },
}

GEOMETRIES = {
    "triangle": (3, lambda: orbitals.triangle_mos(2.0, 2.5)),
    "square": (4, lambda: orbitals.rectangle_mos(2.0, 2.0)),
}


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _marginal(n: int, mos: dict):
    wg, we = (2.0 / 3.0, 1.0 / 3.0) if n == 3 else (0.5, 0.5)

    def marginal(x, y):
        g = mos["g"].evaluate(x, y)
        e = mos["e"].evaluate(x, y)
        return wg * g * g + we * e * e

    return marginal


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_library_maps_are_bit_identical(geometry: str) -> None:
    n, build = GEOMETRIES[geometry]
    mos = build()
    spec = density_maps.GridSpec(resolution=(33, 33))
    hashes = {"single": _sha(density_maps.single_density(n, mos, spec).values)}
    kernel = density_maps.pair_density(n, mos)
    report = density_maps.antibunching_check(kernel, _marginal(n, mos), spec)
    hashes["antibunching"] = hashlib.sha256(
        repr(dataclasses.astuple(report)).encode()
    ).hexdigest()
    for label, site in mos["g"].geometry.sites:
        cond = density_maps.conditional_density(kernel, site.center, spec)
        hashes[f"conditional_{label}"] = _sha(cond.values)
    if geometry == "square":
        flux_mos = orbitals.degenerate_superpositions(mos["e"], mos["e'"])
        flux_labels = ("e+ie'", "e-ie'")
    else:
        flux_mos, flux_labels = mos, ("e", "e'")
    for label in flux_labels:
        hashes[f"flux_{label}"] = _sha(density_maps.probability_flux(flux_mos[label], spec).values)
    assert hashes == MAP_HASHES[geometry]


# A non-square grid with asymmetric ranges: an x/y swap of the grid axes, or
# a reflection, cannot hide here as it could on the square, symmetric grids
# above.  Conditioning point off every site.
ASYMMETRIC_SPEC = density_maps.GridSpec(
    x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=(64, 48)
)
ASYMMETRIC_R0 = (0.37, 0.81)

# sha256 of the float64 bytes of every map on ASYMMETRIC_SPEC, by geometry
ASYMMETRIC_HASHES = {
    "triangle": {
        "single": "fac10678b082ea437de96282044b6eefdc360aa731fb95cad50b7ecb60ae04fb",
        "diagonal": "b6814311217d5432cb8588c9110eff913c7a0a266ddfc56617b6dd3306264adb",
        "conditional": "18c8e2d212e65031cfa39ef43450a520fae0c58def10dca77be9f88495033443",
        "flux_g": "2aae7dc846aaf25f1cadf55f1666862046c6db9d65d84bdc07fa039dac405606",
        "flux_e": "836eaf234500a39925f1ed52697d6862b6a1f9dcfffa014fd320f1b21cc70f21",
        "flux_e'": "2947ef005b4b0e252b3afee2d3326ebff4ea7bacce58d3943664cb3fbec0459b",
    },
    "square": {
        "single": "d0e1ac35933e63d9be66f23bac6b7525f68ce30fb73552aa7d7040d1f37928e0",
        "diagonal": "80267d2d33e1214dcbc82c075411270bf43515a4d53da4cebd4641f9d747e23e",
        "conditional": "38865f77edf32cf13456d23b6409ef9b5be6f756351cad7428dc3d3b7e361d60",
        "flux_g": "2aae7dc846aaf25f1cadf55f1666862046c6db9d65d84bdc07fa039dac405606",
        "flux_e": "2947ef005b4b0e252b3afee2d3326ebff4ea7bacce58d3943664cb3fbec0459b",
        "flux_e'": "fb529aadff4e242d2d7fba58a57e640b823d14969719656bbcc44488871f00c4",
        "flux_e''": "3b8aa23ea356b553ba7f4531d05796bd2299b04fcfcad05516286f880d777cfb",
        "flux_e+e'": "74ef90efbd1caf794feb05db210735f420e0f258981176b08f25842e0e6d4f47",
        "flux_e-e'": "7564ac244784a9957edb0800f43047decd051d332abfc24cd325a37bcdb94fff",
        "flux_e+ie'": "f4d9ad3547d6f6395b495becd1b6fd0daa271058e3e709df3ae550d8d36a9a6a",
        "flux_e-ie'": "e561d61b5456ce7bd732ac13a86bd6649cf1cc90d280f9b18bb9b585b83c0b28",
    },
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_maps_on_an_asymmetric_grid_are_bit_identical(geometry: str) -> None:
    """Real orbitals carry exact zeros of either sign in their flux, which
    the flux hashes pin."""
    n, build = GEOMETRIES[geometry]
    mos = build()
    spec = ASYMMETRIC_SPEC
    kernel = density_maps.pair_density(n, mos)
    hashes = {
        "single": _sha(density_maps.single_density(n, mos, spec).values),
        "diagonal": _sha(kernel(spec, spec)),
        "conditional": _sha(density_maps.conditional_density(kernel, ASYMMETRIC_R0, spec).values),
    }
    flux_mos = dict(mos)
    if geometry == "square":
        flux_mos.update(orbitals.degenerate_superpositions(mos["e"], mos["e'"]))
    for label, mo in flux_mos.items():
        hashes[f"flux_{label}"] = _sha(density_maps.probability_flux(mo, spec).values)
    assert hashes == ASYMMETRIC_HASHES[geometry]


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_maps_on_an_asymmetric_grid_in_row_tiles_are_bit_identical(
    geometry: str, monkeypatch
) -> None:
    """The same hashes with the grid split into tiles of three rows (the
    last of one row) on three workers."""
    monkeypatch.setattr(grid_tiles, "TILE_CELLS", 3 * 48 + 5)
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 3)
    test_maps_on_an_asymmetric_grid_are_bit_identical(geometry)


HOM_THETAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2, 0.1, 0.7, 1.3)

# sha256 of the rendered reports at every HOM_THETAS angle, each followed by "\n"
HOM_HASHES = {
    ("boson", "optical", "HH"): "3bfbf099ef5af1125878d3bc3a88a325df320df0e596fc056e6de4d54e925bcc",
    ("boson", "optical", "VV"): "2495b6e338da4506a0f896b3ee653502e5db1e113d7fcdc5d8d7ed08342593b0",
    ("boson", "optical", "HV-sym"): "0fb63d4826561f85c54624550a93b58d5dbc60a2cecd354bee425b479649389a",
    ("boson", "optical", "HV-antisym"): "b957a4f321dbe071c807af1dcd07fb21724b6998648ef5cbd67061039b64fc39",
    ("boson", "atomic", "aa"): "f39aea831b4bf13e0bfb877b14936a20164483b4215ce70296b214fa65c752d2",
    ("boson", "atomic", "bb"): "f51962688d70f7e388aeac8da5990a2682dc75d0f7c754ae2f77408545578795",
    ("boson", "atomic", "ab-sym"): "6a1ae4be5ddb436e251debd285ef893271998aad7394ff73a8477bc5bedfa197",
    ("boson", "atomic", "ab-antisym"): "aef83b29c27034df2c24c638f10f499ab5743b15aafacf88f364687de39b44a2",
    ("fermion", "optical", "HH"): "fb92ac3f590541d1f78670171e0c59a68b9a559589ad553bb354aaeddfff14ec",
    ("fermion", "optical", "VV"): "9da4e06f44d6fe7975503f5df4992d6c6fadd735622b66d70bef5ee5354a9e3e",
    ("fermion", "optical", "HV-sym"): "bdb7e07a8eb371757e4efb58384108faa3f7fbebda469ce0fad7d182a001aba7",
    ("fermion", "optical", "HV-antisym"): "622b9e483bb09f76cb0d8691a60545918f22172073dfd7f22c69e146c4fe75ee",
    ("fermion", "atomic", "aa"): "ba977145a712163997a72a8ba26dccb9343dbe00f8f0f14ebaeb61dafdde777a",
    ("fermion", "atomic", "bb"): "cf79d8ed41b7607dbc5997569818ad52cdad8346b9744ed95aed6ae535667b5c",
    ("fermion", "atomic", "ab-sym"): "5956c9fc3619913dbefdb9f75a29459958dd88043e94e56f21f0b5add1e7e23f",
    ("fermion", "atomic", "ab-antisym"): "d1a18fb2cddbaa8b2d9c7de85b78fbd60d4761b005c81410e55ddf4da320a0e3",
}


@pytest.mark.parametrize("case", sorted(HOM_HASHES), ids="-".join)
def test_hom_reports_are_byte_identical(case: tuple[str, str, str]) -> None:
    statistics, convention, name = case
    digest = hashlib.sha256()
    for theta in HOM_THETAS:
        config = ExperimentConfig(
            statistics=statistics, convention=convention, input=name, theta=theta
        )
        digest.update(run_hom(config).render().encode() + b"\n")
    assert digest.hexdigest() == HOM_HASHES[case]


VERIFY_STDOUT = """\
== verify ==
[PASS] recoupling identity, pair spin s=0  (residual 0.0e+00)
[PASS] recoupling identity, pair spin s=1  (residual 0.0e+00)
[PASS] family sum vanishes (n=3, kind 0)  (|sum|^2 = 0.0e+00)
[PASS] family sum vanishes (n=3, kind 1)  (|sum|^2 = 0.0e+00)
[PASS] family sum vanishes (n=4, kind 0)  (|sum|^2 = 0.0e+00)
[PASS] family sum vanishes (n=4, kind 1)  (|sum|^2 = 0.0e+00)
[PASS] coupling-scheme orthogonality (n=3, fermion)  (|<1|2>| = 0.0e+00)
[PASS] coupling-scheme orthogonality (n=3, boson)  (|<1|2>| = 0.0e+00)
[PASS] coupling-scheme orthogonality (n=4, fermion)  (|<1|2>| = 0.0e+00)
[PASS] coupling-scheme orthogonality (n=4, boson)  (|<1|2>| = 0.0e+00)
[PASS] spin-trace prefactors (n=3)  (diagonal 1.500000, cross -0.866025)
[PASS] spin-trace prefactors (n=4)  (diagonal 1.500000, cross -0.866025)
RESULT: PASS
"""


def test_verify_stdout_is_byte_identical(capsys) -> None:
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT
