from __future__ import annotations

import dataclasses
import json
import time
import warnings
from math import comb

import numpy as np
import pytest

from oracles import oracle_parse_ideal_text

import syzlab.harness
from syzlab.cli import main
from syzlab.errors import GenericityExhaustedError, ModelInconsistencyError
from syzlab.harness import (
    _sweep_models,
    analyze_model,
    construct_model,
    default_split,
    load_model,
    model_from_dict,
    recovered_bidegrees,
    render_betti,
    sweep_summary,
    theorem_sweep,
)
from syzlab.io import (
    export_ideal_text,
    model_digest,
    model_to_dict,
    polynomial_string,
    save_model,
    strip_timings,
)
from syzlab.linalg import DEFAULT_PRIME, PRIME_BOUND, Subspace
from syzlab.ring import GradedRing
from syzlab.scroll import ScrollFrame, fourgonal_curve
from syzlab.surfaces import bielliptic_curve, delpezzo_curve

P = DEFAULT_PRIME


def test_model_dict_round_trip_curve():
    model = bielliptic_curve(7, seed=80)
    back = model_from_dict(model_to_dict(model))
    assert back.family == model.family
    assert back.genus == model.genus and back.prime == model.prime
    assert back.quadrics == model.quadrics
    assert back.surface_quadrics == model.surface_quadrics
    assert back.params == model.params


def test_model_dict_round_trip_surface():
    # a hosting surface is stored on its curve: its quadrics and, for a
    # plane-cubic surface, its base points
    model = delpezzo_curve(9, seed=81)
    data = model_to_dict(model)
    assert data["type"] == "curve" and "kind" not in data
    back = model_from_dict(data)
    assert back.surface_quadrics == model.surface_quadrics
    assert back.params == model.params == {"base_points": model.params["base_points"]}


def test_model_file_round_trip(tmp_path):
    model = fourgonal_curve(ScrollFrame((2, 2, 2)), 3, 1, seed=82)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.quadrics == model.quadrics
    assert back.params["frame"] == [2, 2, 2]
    assert model_digest(back) == model_digest(model)


def test_digest_distinguishes_models():
    a = bielliptic_curve(7, seed=83)
    b = bielliptic_curve(7, seed=84)
    assert model_digest(a) != model_digest(b)
    assert len(model_digest(a)) == 64


# A digest covers every stored field: a change to a constructor's draws from
# its rng, or to the keys of the file, changes these bytes.
PINNED_DIGESTS = {
    ("genus5", None, 7): "e7b0019108841290810c29c18deb3d03a9ea78c224f1ae5e5b3146f02d751085",
    ("genus5", None, P): "784ae8d6504b70f695e5757ba44acbe225911af3acd059da1857786b5062d979",
    ("fourgonal", 8, 7): "1aa958eef75ed5adff84a34d6c4535eedef93a99dd72d676f1cd20edeaef0d20",
    ("fourgonal", 8, P): "5543a5774053043efaa6b4b3889793e89a26677e370464db7a7a13faf8ae236e",
    ("bielliptic", 8, 7): "2949bdf274cd3bd7ac7e97a492392d4bf33ea46a27b404d886e7eb3aa6e86d54",
    ("bielliptic", 8, P): "b12199028e6c47fd44f21ebf71f2710e22025d1e4afd1901ad1d1ba5e177c16e",
    ("delpezzo", 8, 7): "506e31cbd92433ae63f7061fb209b8dde8cb491038c6a8cd6daf1e4e4e532724",
    ("delpezzo", 8, P): "acef7f3c364e43723937e8df57d086a8075eccb231162ff9622184325bb3f353",
}


@pytest.mark.parametrize("family,genus,prime", sorted(PINNED_DIGESTS, key=str))
def test_model_bytes_are_pinned(family, genus, prime):
    model = construct_model(family, genus=genus, prime=prime, seed=0)
    assert model_digest(model) == PINNED_DIGESTS[family, genus, prime]


# One-sided 4-gonal models at genus 7, twists (2, 0): their surface quadrics
# are the quadrics that restrict into the span of the twist-2 section's
# multiples, so these bytes also cover the order and size of the section
# draws and the params layout.
PINNED_ONE_SIDED = {
    (None, 7): "e2f3c6ac5089cf0927b94c1e5ea6618dcccf21247c44e51b66c3face9876f501",
    (None, P): "c8f118d53c7624022ae9e4adce2749f5a02cf54426a6b6b42d17346f841aab4a",
    ((1, 1, 2), 101): "f69d31b1a9aa541f8f3e14f5672077742352eaee26fe493fee8531e447efc7ae",
}


@pytest.mark.parametrize("frame,prime", sorted(PINNED_ONE_SIDED, key=str))
def test_one_sided_model_bytes_are_pinned(frame, prime):
    model = construct_model("fourgonal", genus=7, prime=prime, seed=0, frame=frame, a=2, b=0)
    assert model.surface_quadrics is not None
    assert model_digest(model) == PINNED_ONE_SIDED[frame, prime]


# every constructor, each at a small, a middle and the default prime: a
# saved model loads back as itself, through the loader's rebuild
ROUND_TRIP_MODELS = {
    "genus5": dict(family="genus5"),
    "fourgonal": dict(family="fourgonal", genus=8),
    "fourgonal-one-sided": dict(family="fourgonal", genus=7, a=2, b=0),
    "bielliptic": dict(family="bielliptic", genus=8),
    "delpezzo": dict(family="delpezzo", genus=8),
    "veronese": dict(family="veronese", genus=10),
}


@pytest.mark.parametrize("prime", [7, 101, P])
@pytest.mark.parametrize("name", sorted(ROUND_TRIP_MODELS))
def test_saved_models_load_as_their_rebuild(tmp_path, name, prime):
    model = construct_model(**ROUND_TRIP_MODELS[name], prime=prime, seed=3)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert model_digest(back) == model_digest(model)
    for space, back_space in [(model.quadrics, back.quadrics),
                              (model.surface_quadrics, back.surface_quadrics)]:
        assert (space is None) == (back_space is None)
        if space is not None:
            assert back_space.basis.tobytes() == space.basis.tobytes()
            assert back_space.pivot_cols == space.pivot_cols


def test_analysis_reports_are_deterministic_up_to_timings():
    model = construct_model("fourgonal", genus=8, seed=85)
    r1 = strip_timings(analyze_model(model))
    r2 = strip_timings(analyze_model(model))
    assert r1 == r2
    assert r1["verdict"] == "EqualsCurve"
    assert r1["kappa21"] == 35
    assert "timings" not in r1


def test_polynomial_string_formatting():
    ring = GradedRing(3, P)
    coeffs = np.zeros(ring.dim(2), dtype=np.int64)
    coeffs[ring.index_of((2, 0, 0))] = 1
    coeffs[ring.index_of((1, 0, 1))] = 5
    assert polynomial_string(ring, 2, coeffs) == "Z1^2 + 5*Z1*Z3"
    assert polynomial_string(ring, 2, np.zeros(ring.dim(2), dtype=np.int64)) == "0"


def _ideal_rows(ring: GradedRing, polys) -> np.ndarray:
    """Coefficient rows, in the ring's monomial order, of parsed polynomials."""
    rows = np.zeros((len(polys), ring.dim(2)), dtype=np.int64)
    for row, poly in zip(rows, polys):
        for exps, coeff in poly.items():
            row[ring.index_of(exps)] = coeff
    return rows


def test_export_parse_round_trip():
    model = bielliptic_curve(7, seed=86)
    text = export_ideal_text(model)
    prime, nvars, polys = oracle_parse_ideal_text(text)
    assert prime == P and nvars == 7
    assert text.splitlines()[:2] == [f"# prime {P}", "# nvars 7"]
    assert sum(line.startswith("#") for line in text.splitlines()) == 2
    rows = _ideal_rows(GradedRing(7, P), polys)
    assert np.array_equal(rows, model.quadrics.basis)
    assert Subspace.from_rows(rows, comb(8, 2), P) == model.quadrics
    # a second export of the parsed payload is byte-identical
    back = model_from_dict(model_to_dict(model))
    assert export_ideal_text(back) == text


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        oracle_parse_ideal_text("Z1*Z2\n")  # missing headers
    with pytest.raises(ValueError):
        oracle_parse_ideal_text("# prime 7\n# nvars 3\nZ9^2\n")  # variable out of range
    with pytest.raises(ValueError):
        oracle_parse_ideal_text("# prime 7\n# nvars 3\n# point 1 0 0\nZ1^2\n")  # no such header
    assert oracle_parse_ideal_text("# prime 7\n# nvars 3\n3*Z1*Z3 + Z2^2\n0\n") == (
        7, 3, [{(1, 0, 1): 3, (0, 2, 0): 1}, {}]
    )


def test_default_split_and_recovery():
    assert default_split(9) == (2, 2)
    assert default_split(8) == (2, 1)
    model = construct_model("fourgonal", genus=9, a=3, b=1, seed=87)
    assert recovered_bidegrees(model) == (3, 1)


def test_stored_twists_that_the_quadrics_lack_fail_the_record():
    # a model file cannot carry this (its params would not rebuild its
    # quadrics), but a library caller can
    model = construct_model("fourgonal", genus=9, a=3, b=1, seed=87)
    assert analyze_model(model)["passed"] is True
    relabelled = dataclasses.replace(model, params={**model.params, "a": 2, "b": 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze_model(relabelled)
    assert report["bidegrees"] == [3, 1]
    assert report["verdict"] == report["expected_verdict"] == "EqualsCurve"
    assert report["passed"] is False


def test_construct_model_validation():
    with pytest.raises(ValueError):
        construct_model("fourgonal")  # genus required
    with pytest.raises(ValueError):
        construct_model("genus5", genus=7)
    with pytest.raises(ValueError):
        construct_model("veronese", genus=9)
    with pytest.raises(ValueError):
        construct_model("fourgonal", genus=9, a=2)  # b missing
    with pytest.raises(ValueError):
        construct_model("no-such-family", genus=9)
    with pytest.raises(ValueError, match="genus-7"):
        construct_model("fourgonal", genus=6, frame=(1, 1, 2), a=1, b=1)  # frame of genus 7
    with pytest.raises(ValueError, match="delpezzo models have genus 6..9"):
        construct_model("delpezzo", genus=10)  # the genus-10 surface is the Veronese
    for family, genus in [("bielliptic", 7), ("delpezzo", 7), ("veronese", 10), ("genus5", 5)]:
        for options in [{"frame": (1, 1, 2)}, {"a": 1, "b": 1}, {"b": 0}]:
            with pytest.raises(ValueError, match="fourgonal"):
                construct_model(family, genus=genus, **options)


class _ZeroGenerator:
    """A seeded stream that draws only zeros, so no genericity draw succeeds."""

    def __init__(self) -> None:
        self.calls = 0

    def integers(self, low, high=None, size=None, dtype=np.int64):
        self.calls += 1
        return 0 if size is None else np.zeros(size, dtype=dtype)


@pytest.mark.parametrize(
    "family, genus, calls",
    [("genus5", 5, 8), ("bielliptic", 8, 16), ("delpezzo", 7, 8), ("delpezzo", 9, 9),
     ("veronese", 10, 9), ("fourgonal", 9, 16)],
)
def test_exhausted_draws_are_refused(tmp_path, capsys, monkeypatch, family, genus, calls):
    # eight draws per genericity condition; a scalar draw counts as one call
    streams = []

    def default_rng(seed=None):
        streams.append(_ZeroGenerator())
        return streams[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    with pytest.raises(GenericityExhaustedError, match="after 8 draws$"):
        construct_model(family, genus=genus, seed=3)
    assert [stream.calls for stream in streams] == [calls]
    out = tmp_path / "m.json"
    argv = ["construct", family, "--genus", str(genus), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "after 8 draws" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, genus, options",
    [("bielliptic", 8, {}), ("delpezzo", 8, {}),
     ("fourgonal", 7, {"frame": (1, 1, 2), "a": 2, "b": 0})],
)
def test_a_model_certifies_its_dimensions(family, genus, options):
    model = construct_model(family, genus=genus, seed=5, **options)
    assert model.surface_quadrics is not None
    with pytest.raises(ModelInconsistencyError, match=" quadrics span dim"):
        dataclasses.replace(model, quadrics=model.surface_quadrics)
    with pytest.raises(ModelInconsistencyError, match="surface_quadrics span dim"):
        dataclasses.replace(model, surface_quadrics=model.quadrics)


def test_render_betti_marks_gaps():
    table = {"genus": 6, "entries": [[1, -1], [0, 3]], "truncated": True}
    text = render_betti(table)
    assert "?" in text and "--" in text
    assert "truncated" in text


def test_theorem_sweep_small_window():
    records, ok = theorem_sweep(5, 6, trials=1, seed=88)
    assert ok
    families = {r["family"] for r in records}
    assert "genus5" in families and "delpezzo" in families
    summary = sweep_summary(records)
    assert "PASS" in summary and "FAIL" not in summary
    with pytest.raises(ValueError):
        theorem_sweep(4, 6)


def test_sweep_labels_each_model_by_its_family():
    # the plane-cubic model of genus 10 is a veronese one
    cell = _sweep_models(10, 101, 0, 0)
    assert [label for label, _ in cell] == ["fourgonal-split", "bielliptic", "veronese"]
    assert [model.family for _, model in cell] == ["fourgonal", "bielliptic", "veronese"]
    records, ok = theorem_sweep(10, 10, prime=101)
    assert ok and [r["family"] for r in records] == ["bielliptic", "fourgonal-split", "veronese"]


def test_cli_analyze_exits_1_on_a_failed_record(tmp_path, capsys, monkeypatch):
    # params (a, b) = (3, 0) predict a surface; the quadrics are those of the
    # (2, 1) model of the same frame: the file is not its own rebuild
    frame = (1, 2, 2)
    data = model_to_dict(construct_model("fourgonal", genus=8, frame=frame, a=3, b=0, seed=96))
    other = construct_model("fourgonal", genus=8, frame=frame, a=2, b=1, seed=96)
    data["quadrics"] = model_to_dict(other)["quadrics"]
    data["surface_quadrics"] = None
    model_path, report_path = tmp_path / "m.json", tmp_path / "r.json"
    model_path.write_text(json.dumps(data))
    assert main(["analyze", str(model_path), "--out", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'quadrics'" in err
    assert not report_path.exists()

    save_model(other, model_path)
    assert main(["analyze", str(model_path), "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS ") and "verdict = EqualsCurve  expected = EqualsCurve" in out

    # a record that fails, as a wrong verdict would make it
    classify = syzlab.harness.classify_theorem
    monkeypatch.setattr(
        syzlab.harness, "classify_theorem",
        lambda model: {**classify(model), "expected_verdict": "ProperSurface", "passed": False},
    )
    assert main(["analyze", str(model_path), "--out", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL ") and "verdict = EqualsCurve  expected = ProperSurface" in out
    assert json.loads(report_path.read_text())["passed"] is False


def test_cli_construct_analyze_export(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    report_path = tmp_path / "r.json"
    ideal_path = tmp_path / "i.txt"
    assert main([
        "construct", "fourgonal", "--genus", "8", "--a", "2", "--b", "1",
        "--seed", "89", "--out", str(model_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "dim I2 = 15" in out

    assert main(["analyze", str(model_path), "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "EqualsCurve" in out
    report = json.loads(report_path.read_text())
    assert report["kappa21"] == 35 and report["verdict"] == "EqualsCurve"

    assert main([
        "export-ideal", str(model_path), "--out", str(ideal_path),
    ]) == 0
    prime, nvars, polys = oracle_parse_ideal_text(ideal_path.read_text())
    assert nvars == 8 and len(polys) == 15
    model = load_model(model_path)
    assert np.array_equal(_ideal_rows(GradedRing(8, prime), polys), model.quadrics.basis)
    assert model.prime == prime == DEFAULT_PRIME

    assert main(["construct", "genus5", "--seed", "91", "--prime", "10007",
                 "--out", str(model_path)]) == 0
    assert load_model(model_path).prime == 10007


def test_cli_verify_theorem(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code = main([
        "verify-theorem", "--genus-range", "5..6", "--seed", "90",
        "--out", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    data = json.loads(out_path.read_text())
    assert data["all_passed"] is True


def test_cli_verify_theorem_small_prime(capsys):
    # exact surface ideals need no point samples, so p = 101 sweeps cleanly
    assert main(["verify-theorem", "--prime", "101", "--genus-range", "5..13"]) == 0
    assert "25/25 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_verify_theorem_without_trials_exits_2(capsys, trials):
    # a check that ran nothing must not count as passed
    assert main(["verify-theorem", "--genus-range", "5..6", "--trials", trials]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and trials in err


def test_cli_bad_input_exits_2(tmp_path, capsys):
    assert main(["construct", "fourgonal", "--out", str(tmp_path / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["construct", "genus5", "--genus", "9",
                 "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()
    # the one-sided genus-11 model would be a reducible curve
    assert main(["construct", "fourgonal", "--genus", "11", "--frame", "2,3,3",
                 "--a", "6", "--b", "0", "--out", str(tmp_path / "x.json")]) == 2
    assert "(2, 3, 3)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["fourgonal", "--genus", "6", "--frame", "1,1,2", "--a", "1", "--b", "1"],
        ["bielliptic", "--genus", "7", "--frame", "1,1,2"],
        ["bielliptic", "--genus", "7", "--a", "1", "--b", "1"],
    ],
)
def test_cli_construct_refuses_options_it_would_ignore(tmp_path, capsys, args):
    model_path = tmp_path / "m.json"
    assert main(["construct", *args, "--out", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not model_path.exists()


@pytest.mark.parametrize("p_max", ["-1", "-3", "100000"])
def test_cli_negative_betti_max_p_exits_2(tmp_path, capsys, p_max):
    # the genus-5 grid has no column past p = 5
    model_path = tmp_path / "m.json"
    save_model(construct_model("genus5", seed=92), model_path)
    code = main(["analyze", str(model_path), "--betti-max-p", p_max,
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and p_max in err


def _drop_seed(data):
    del data["seed"]


def _huge_coefficient(data):
    data["quadrics"]["rows"][0][-1] = 2**70


def _relabel_fourgonal(data):
    data["family"] = "fourgonal"


def _two_of_six_quadrics(data):
    data["quadrics"]["rows"] = data["quadrics"]["rows"][:2]


def _null_genus(data):
    data["genus"] = None


def _null_prime(data):
    data["prime"] = None


def _prime_nine(data):
    data["prime"] = 9


def _prime_past_the_bound(data):
    data["prime"] = PRIME_BOUND + 35  # the least prime above 2**25


def _null_seed(data):
    data["seed"] = None


def _scalar_quadrics(data):
    data["quadrics"] = 5


def _null_params(data):
    data["params"] = None


def _scalar_rows(data):
    data["quadrics"] = {"ambient_dim": 21, "rows": 5}


def _surface_not_in_curve_ideal(data):
    data["surface_quadrics"]["rows"][0] = data["quadrics"]["rows"][0][::-1]


def _null_coefficient(data):
    data["quadrics"]["rows"][0][0] = None


def _fractional_coefficient(data):
    data["quadrics"]["rows"][0][-1] += 0.5


def _boolean_surface_coefficient(data):
    row = data["surface_quadrics"]["rows"][0]
    row[row.index(1)] = True  # the pivot: the same value as an int


def _sample_points_key(data):
    # the witness points older files stored, refused even when empty
    data["sample_points"] = []


# Older files stored witness points; one of such a file that the old load
# checks refused is still refused, now for its key.
def _witness_off_the_curve(data):
    point = [1, 2, 3, 4, 5, 6]
    prime = data["prime"]
    values = GradedRing(len(point), prime).evaluate_monomials(2, point)[0]
    assert (np.asarray(data["quadrics"]["rows"], dtype=np.int64) @ values % prime).any()
    data["sample_points"] = [point]


def _fractional_witness(data):
    data["sample_points"] = [[1, 0.5, 0, 0, 0, 0]]


def _short_witness_row(data):
    data["sample_points"] = [[1, 0, 0]]


def _unknown_key(data):
    data["comment"] = "edited by hand"


def _listed_family(data):
    data["family"] = ["delpezzo"]


def _object_family(data):
    data["family"] = {"a": 1}


def _listed_type(data):
    data["type"] = ["curve"]


def _negative_genus(data):
    data["genus"] = -3


def _short_base_point(data):
    data["params"]["base_points"][0] = data["params"]["base_points"][0][:2]


def _swap_in(data, model, key, value):
    """Replace data by the file of another model, with params[key] = value."""
    data.clear()
    data.update(model_to_dict(model))
    data["params"][key] = value


def _null_fourgonal_twist(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "a", None)


def _listed_fourgonal_twist(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "a", [1])


def _short_fourgonal_frame(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "frame", [2, 2])


def _flat_fourgonal_blocks(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "q2_blocks", [1, 2])


def _fractional_bielliptic_coefficient(data):
    _swap_in(data, bielliptic_curve(6, seed=95), "a6", 1.5)


# Files whose family contradicts their genus or params: each is refused for
# what its family's constructor would refuse.
def _relabelled(data, model, family, params):
    data.clear()
    data.update(model_to_dict(model))
    data["family"], data["params"] = family, params


def _fourgonal_as_genus5(data):
    _relabelled(data, construct_model("fourgonal", genus=7, seed=94), "genus5", {})


def _fourgonal_as_veronese(data):
    _relabelled(data, construct_model("fourgonal", genus=7, seed=94), "veronese",
                {"base_points": []})


def _fourgonal_as_basepointless_delpezzo(data):
    _relabelled(data, construct_model("fourgonal", genus=7, seed=94), "delpezzo",
                {"base_points": []})


def _genus5_with_params(data):
    _relabelled(data, construct_model("genus5", seed=94), "genus5", {"a4": 1})


def _veronese_as_delpezzo(data):
    model = construct_model("veronese", prime=101, seed=94)
    _relabelled(data, model, "delpezzo", model.params)


def _genus5_as_bielliptic(data):
    _relabelled(data, construct_model("genus5", seed=94), "bielliptic", {"a4": 1, "a6": 1})


def _singular_bielliptic_cubic(data):
    data.clear()
    data.update(model_to_dict(bielliptic_curve(6, seed=95)))
    data["params"].update(a4=0, a6=0)


def _extra_params_key(data):
    data["params"]["note"] = 1


def _negative_fourgonal_twist(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "a", 5)
    data["params"]["b"] = -3


def _fourgonal_frame_of_another_genus(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "frame", [1, 1, 3])


def _unsorted_fourgonal_frame(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "frame", [2, 1, 1])


def _degenerate_fourgonal_frame(data):
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "frame", [0, 0, 4])


# Files that lie: every field is well formed, but the params, quadrics or
# seed are not those of one model.  Each is refused for the first field
# that differs from the rebuild of its family, genus, prime and seed.
def _delpezzo_relabelled_bielliptic(data):
    _relabelled(data, construct_model("delpezzo", genus=8, seed=94), "bielliptic",
                {"a4": 1, "a6": 1})


def _bielliptic_quadrics_of_another_seed(data):
    data.clear()
    data.update(model_to_dict(bielliptic_curve(7, seed=95)))
    other = model_to_dict(bielliptic_curve(7, seed=96))
    data["quadrics"], data["surface_quadrics"] = other["quadrics"], other["surface_quadrics"]


def _moved_base_point(data):
    point = data["params"]["base_points"][0]
    point[0] = (point[0] + 1) % data["prime"]


def _fourgonal_quadrics_of_another_seed(data):
    data.clear()
    data.update(model_to_dict(construct_model("fourgonal", genus=7, seed=94)))
    data["quadrics"] = model_to_dict(construct_model("fourgonal", genus=7, seed=95))["quadrics"]


def _fourgonal_q1_blocks_of_another_seed(data):
    other = construct_model("fourgonal", genus=7, seed=95)
    _swap_in(data, construct_model("fourgonal", genus=7, seed=94), "q1_blocks",
             other.params["q1_blocks"])


def _edited_seed(data):
    data["seed"] += 1


def _genus_400(data):
    # a genus-400 model has 79,003 quadrics; the file holds six
    data["genus"] = 400


@pytest.mark.parametrize(
    "edit",
    [
        _drop_seed,
        _huge_coefficient,
        _relabel_fourgonal,
        _two_of_six_quadrics,
        _surface_not_in_curve_ideal,
        _null_genus,
        _null_prime,
        _prime_nine,
        _prime_past_the_bound,
        _null_seed,
        _scalar_quadrics,
        _null_params,
        _scalar_rows,
        _null_coefficient,
        _fractional_coefficient,
        _boolean_surface_coefficient,
        _sample_points_key,
        _witness_off_the_curve,
        _fractional_witness,
        _short_witness_row,
        _unknown_key,
        _short_base_point,
        _null_fourgonal_twist,
        _listed_fourgonal_twist,
        _short_fourgonal_frame,
        _flat_fourgonal_blocks,
        _fractional_bielliptic_coefficient,
        _fourgonal_as_genus5,
        _fourgonal_as_veronese,
        _fourgonal_as_basepointless_delpezzo,
        _genus5_with_params,
        _veronese_as_delpezzo,
        _genus5_as_bielliptic,
        _singular_bielliptic_cubic,
        _extra_params_key,
        _negative_fourgonal_twist,
        _fourgonal_frame_of_another_genus,
        _unsorted_fourgonal_frame,
        _degenerate_fourgonal_frame,
        _listed_family,
        _object_family,
        _listed_type,
        _negative_genus,
        _delpezzo_relabelled_bielliptic,
        _bielliptic_quadrics_of_another_seed,
        _moved_base_point,
        _fourgonal_quadrics_of_another_seed,
        _fourgonal_q1_blocks_of_another_seed,
        _edited_seed,
        _genus_400,
    ],
)
def test_malformed_model_files_exit_2(tmp_path, capsys, edit):
    data = model_to_dict(delpezzo_curve(6, seed=93))
    written = set(data)
    edit(data)
    with pytest.raises(ModelInconsistencyError):
        model_from_dict(data)
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(data))
    assert main(["analyze", str(model_path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # an added key is named
    assert all(repr(key) in err for key in set(data) - written)


def test_a_model_file_is_sized_before_it_is_rebuilt(monkeypatch):
    data = model_to_dict(delpezzo_curve(6, seed=93))
    _genus_400(data)
    built = []
    monkeypatch.setattr(syzlab.harness, "construct_model", lambda *a, **k: built.append(a))
    start = time.perf_counter()
    with pytest.raises(ModelInconsistencyError, match="genus 400"):
        model_from_dict(data)
    assert time.perf_counter() - start < 1.0
    assert built == []


@pytest.mark.parametrize("content", ["[1, 2]", None, "surface", "nested"])
def test_cli_unreadable_model_file_exits_2(tmp_path, capsys, content):
    model_path = tmp_path / "m.json"  # not written when content is None
    if content == "nested":
        # deeper than the JSON parser's recursion limit
        model_path.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(ModelInconsistencyError, match="nest"):
            load_model(model_path)
    elif content == "surface":
        # a valid curve file relabelled: only curve files exist
        data = model_to_dict(bielliptic_curve(7, seed=1))
        data["type"] = "surface"
        model_path.write_text(json.dumps(data))
        with pytest.raises(ModelInconsistencyError, match="surface"):
            load_model(model_path)
    elif content is not None:
        model_path.write_text(content)
        with pytest.raises(ModelInconsistencyError):
            model_from_dict(json.loads(content))
    for command in ("analyze", "export-ideal"):
        assert main([command, str(model_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
