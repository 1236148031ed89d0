"""End-to-end byte identity of the `density` verb.

Two small runs are pinned by the sha256 and byte count of every file they
write and by their full rendered stdout.  The values were recorded from the
code before the exact-layer caches and the streaming CSV writer went in, so
any change to a written float, a file name or a printed check line fails
here.  Refactors that keep the output contract must keep these green.
"""
import hashlib
from pathlib import Path

import pytest

from fewbody.cli import main

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


@pytest.mark.parametrize(
    "argv, stdout, files",
    [
        (TRIANGLE_ARGS, TRIANGLE_STDOUT, TRIANGLE_FILES),
        (SQUARE_ARGS, SQUARE_STDOUT, SQUARE_FILES),
    ],
    ids=["triangle", "square-balanced"],
)
def test_density_outputs_are_byte_identical(
    argv, stdout, files, tmp_path: Path, capsys, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEWBODY_OUTPUT_DIR", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    written = {}
    for path in sorted((tmp_path / "out").iterdir()):
        data = path.read_bytes()
        written[path.name] = (len(data), hashlib.sha256(data).hexdigest())
    assert written == files
