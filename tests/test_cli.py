import json

import numpy as np
import pytest

from blochmap import AnalyticSeries, HarmonicMapping, save_mapping
from blochmap.cli import main

INV_SQRT3 = 0.5773502691896258


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_mapping(tmp_path, name, h, g, **tails):
    f = HarmonicMapping(
        AnalyticSeries(h, tails.get("tail_h")),
        AnalyticSeries(g, tails.get("tail_g")),
    )
    path = tmp_path / name
    save_mapping(f, path)
    return str(path)


def write_functional(tmp_path, name, A, B):
    path = tmp_path / name
    path.write_text(json.dumps({"A": A, "B": B}))
    return str(path)


def test_beta_family_member(capsys):
    code, out, _ = run_cli(capsys, "beta", "--family-a", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["beta"] - 1.0) <= 1e-8
    argmax = complex(*payload["argmax"])
    assert abs(abs(argmax) - INV_SQRT3) < 1e-6


def test_beta_mapping_file(capsys, tmp_path):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, out, _ = run_cli(capsys, "beta", "--mapping", path)
    assert code == 0
    assert abs(json.loads(out)["beta"] - 1.0) <= 1e-8


def test_beta_zero_mapping(capsys, tmp_path):
    path = write_mapping(tmp_path, "zero.json", [0.0], [0.0])
    code, out, _ = run_cli(capsys, "beta", "--mapping", path)
    assert code == 0
    assert json.loads(out)["beta"] == 0.0


def test_counterexample_round_trip(capsys, tmp_path):
    out_path = tmp_path / "f.json"
    code, _, _ = run_cli(capsys, "counterexample", "--family-a", "0.75",
                         "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "beta", "--mapping", str(out_path))
    assert code == 0
    assert abs(json.loads(out)["beta"] - 1.0) <= 1e-8


def test_floats_round_trip_exactly(capsys, tmp_path):
    # 17 significant digits reproduce the doubles bit for bit
    path = write_mapping(tmp_path, "odd.json", [0.0, 1.0 / 3.0], [0.0])
    code, out, _ = run_cli(capsys, "beta", "--mapping", path)
    assert code == 0
    value = json.loads(out)["beta"]
    assert value == float(format(value, ".17g"))


def test_lambda_family_curve(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--family-a", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "CURVE_LIKE"
    assert abs(payload["witness_radius"] - 0.5774) < 1e-4
    pts = np.array([complex(p[0], p[1]) for p in payload["points"]])
    assert np.abs(np.abs(pts) - INV_SQRT3).max() < 1e-4


def test_lambda_flagged_exit_code(capsys, tmp_path):
    path = write_mapping(tmp_path, "big.json", [0.0, 1.5], [0.0])
    code, out, err = run_cli(capsys, "lambda", "--mapping", path)
    assert code == 2
    assert json.loads(out)["flagged"] is True
    assert "unreliable" in err


def test_membership_marginal_is_flagged(capsys, tmp_path):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, out, err = run_cli(capsys, "membership", "--mapping", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["marginal"] is True
    assert payload["in_unit_ball"] is True
    assert "unit sphere" in err


def test_membership_interior_ok(capsys, tmp_path):
    path = write_mapping(tmp_path, "half.json", [0.0, 0.5], [0.0])
    code, out, _ = run_cli(capsys, "membership", "--mapping", path)
    assert code == 0
    assert json.loads(out)["marginal"] is False


def test_midpoint_command(capsys, tmp_path):
    path = write_mapping(
        tmp_path, "f1.json",
        [0.0, 0.0, 3.0 * np.sqrt(3.0) / 8.0],
        [0.0, 0.0, -3.0 * np.sqrt(3.0) / 8.0],
    )
    code, out, _ = run_cli(capsys, "midpoint", "--mapping", path, "--a", "0.5")
    assert code == 0
    assert json.loads(out)["is_midpoint"] is True


def test_extreme_check_identity(capsys, tmp_path):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, out, _ = run_cli(capsys, "extreme-check", "--mapping", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NOT_EXTREME"
    assert payload["lambda"]["classification"] == "ISOLATED"


def test_sharpen_identity(capsys, tmp_path):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, out, _ = run_cli(capsys, "sharpen", "--mapping", path,
                           "--z0", "0", "--delta0", "0.9")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "FOUND"
    assert payload["n"] == 2
    assert payload["verified_margin"] > 0.0


def test_sharpen_not_found_is_flagged(capsys):
    code, out, err = run_cli(capsys, "sharpen", "--family-a", "1.0",
                             "--z0", str(INV_SQRT3), "--delta0", "0.4")
    assert code == 2
    assert json.loads(out)["status"] == "NOT_FOUND"
    assert "flagged" in err


@pytest.mark.parametrize("z0", ["nan", "0,nan", "inf", "0,-inf"])
def test_sharpen_rejects_non_finite_center(capsys, z0):
    code, out, err = run_cli(capsys, "sharpen", "--family-a", "1.0",
                             "--z0", z0, "--delta0", "0.4")
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_mu_grid_csv(capsys, tmp_path):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, out, _ = run_cli(capsys, "mu-grid", "--mapping", path, "--grid", "4x8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,mu"
    assert len(lines) == 34
    first = [float(x) for x in lines[1].split(",")]
    assert first[2] == pytest.approx(1.0 - (first[0] ** 2 + first[1] ** 2), abs=1e-12)


def test_functional_with_lift_and_eps(capsys, tmp_path):
    mpath = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    code, out, _ = run_cli(capsys, "functional", "--mapping", mpath,
                           "--functional", fpath, "--lift", "--eps", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == [1.0, 0.0]
    assert payload["lift"]["value_on_derivatives"] == [1.0, 0.0]
    assert payload["dilation"]["K"] == 1.0
    assert payload["dilation"]["actual"] == 0.25


def test_certify_support_family(capsys):
    code, out, _ = run_cli(capsys, "certify-support", "--family-a", "1.0",
                           "--samples", "300", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "CERTIFIED"
    assert abs(payload["attained_value"] - 2.25) < 1e-6
    assert payload["margin"] >= -1e-8
    assert payload["lambda_classification"] == "CURVE_LIKE"


def test_certify_support_none(capsys, tmp_path):
    path = write_mapping(tmp_path, "half.json", [0.0, 0.5], [0.0])
    code, out, _ = run_cli(capsys, "certify-support", "--mapping", path,
                           "--samples", "64")
    assert code == 0
    assert json.loads(out)["status"] == "NONE"


def test_bonk_command(capsys):
    code, out, _ = run_cli(capsys, "bonk", "--m", "2.0", "--samples", "20000")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] >= 0.707
    assert payload["verified_min_slack"] >= 0.0
    assert payload["verification_samples"] == 20000


def test_falsify_improves(capsys, tmp_path):
    mpath = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    code, out, _ = run_cli(capsys, "falsify", "--mapping", mpath,
                           "--functional", fpath)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "IMPROVED"
    assert payload["improvement"] > 0.0
    assert payload["modulus_after"] <= 1.0 + 1e-12
    assert "f_tilde" in payload


def test_falsify_not_applicable(capsys, tmp_path):
    scale = 3.0 * np.sqrt(3.0) / 2.0
    mpath = write_mapping(tmp_path, "lvl.json", [0.0, scale], [0.0])
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    code, out, _ = run_cli(capsys, "falsify", "--mapping", mpath,
                           "--functional", fpath)
    assert code == 0
    assert json.loads(out)["status"] == "NOT_APPLICABLE"


def test_decompose_command(capsys, tmp_path):
    scale = 3.0 * np.sqrt(3.0) / 8.0
    path = write_mapping(tmp_path, "shift.json",
                         [0.5, 0.0, 0.5 * scale], [0.0, 0.0, -0.5 * scale])
    code, out, _ = run_cli(capsys, "decompose", "--mapping", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "DECOMPOSED"
    assert payload["lambda1"] == pytest.approx(0.5)
    assert payload["u"] == [1.0, 0.0]


def test_output_file_option(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "beta", "--family-a", "1.0", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert abs(json.loads(out_path.read_text())["beta"] - 1.0) <= 1e-8


def test_error_unknown_command(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert out == ""
    assert err.strip() != ""


def test_error_missing_mapping(capsys):
    code, _, err = run_cli(capsys, "beta")
    assert code == 1
    assert "--mapping" in err


def test_error_mutually_exclusive_inputs(capsys, tmp_path):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, _, err = run_cli(capsys, "beta", "--mapping", path, "--family-a", "1.0")
    assert code == 1
    assert "mutually exclusive" in err


def test_error_missing_file(capsys):
    code, _, err = run_cli(capsys, "beta", "--mapping", "/nonexistent/f.json")
    assert code == 1
    assert err.strip() != ""


def test_error_malformed_mapping(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "beta", "--mapping", str(path))
    assert code == 1
    assert "malformed" in err


def test_error_malformed_functional(capsys, tmp_path):
    mpath = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    fpath = tmp_path / "L.json"
    fpath.write_text("[1, 2")
    code, _, err = run_cli(capsys, "falsify", "--mapping", mpath,
                           "--functional", str(fpath))
    assert code == 1
    assert "malformed" in err


def test_error_bad_family_parameter(capsys):
    code, _, err = run_cli(capsys, "beta", "--family-a", "2.5")
    assert code == 1
    assert "0 < a < 2" in err
