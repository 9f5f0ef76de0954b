import json

import numpy as np
import pytest

from blochmap import (AnalyticSeries, HarmonicMapping, counterexample_family, load_mapping,
                      mu_grid_rows, save_mapping)
from blochmap import cli
from blochmap.cli import main
from blochmap.support import FalsifierOutcome, FalsifierStatus

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
    # the shortest repr of a double reproduces it bit for bit
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


def test_sharpen_margins_include_the_declared_tail(capsys, tmp_path):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0], tail_h=1e-3)
    code, out, err = run_cli(capsys, "sharpen", "--mapping", path,
                             "--z0", "0", "--delta0", "0.9")
    assert code == 2
    assert json.loads(out)["status"] == "NOT_FOUND"
    assert "flagged" in err
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0], tail_h=1e-12)
    code, out, _ = run_cli(capsys, "sharpen", "--mapping", path,
                           "--z0", "0", "--delta0", "0.9")
    assert code == 0
    assert json.loads(out)["n"] == 2


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


@pytest.mark.parametrize("command", [["functional"], ["functional", "--eps", "0.25"],
                                     ["falsify"]], ids=["functional", "dilation", "falsify"])
def test_weights_beyond_a_declared_tail_are_an_error(capsys, tmp_path, command):
    mpath = write_mapping(tmp_path, "f.json", [0.0, 0.9], [0.0], tail_h=0.05)
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0]] * 3 + [[1.0, 0.0]], [[0.0, 0.0]])
    code, out, err = run_cli(capsys, command[0], "--mapping", mpath,
                             "--functional", fpath, *command[1:])
    assert code == 1
    assert out == ""
    assert "declared tail" in err
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    code, out, _ = run_cli(capsys, "functional", "--mapping", mpath, "--functional", fpath)
    assert code == 0
    assert json.loads(out)["value"] == [0.9, 0.0]


@pytest.mark.parametrize("command", ["certify-support", "extreme-check"])
def test_a_mapping_outside_the_ball_fails_membership(capsys, tmp_path, command):
    # mu of 2z peaks at 2; its level set is flagged as well, but membership
    # is checked first
    path = write_mapping(tmp_path, "double.json", [0.0, 2.0], [0.0])
    code, out, err = run_cli(capsys, command, "--mapping", path)
    assert (code, out) == (1, "")
    assert len(err.strip().splitlines()) == 1
    assert "membership" in err


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


def test_bonk_large_levels(capsys):
    code, out, _ = run_cli(capsys, "bonk", "--m", "1e6", "--samples", "1000")
    assert code == 0
    assert json.loads(out)["verified_min_slack"] >= 0.0
    # past M of about 2.5e8 the radius R would reach the 1 - 1e-9 cap
    code, out, err = run_cli(capsys, "bonk", "--m", "1e12")
    assert code == 1
    assert out == ""
    assert "cap" in err


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


def test_falsify_construction_failure_is_flagged(capsys, tmp_path, monkeypatch):
    message = "no verified eps after repeated shrinking"
    failed = FalsifierOutcome(FalsifierStatus.CONSTRUCTION_FAILED, message, 0.5)
    monkeypatch.setattr(cli, "perturbation_falsifier", lambda L, f: failed)
    mpath = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    code, out, err = run_cli(capsys, "falsify", "--mapping", mpath, "--functional", fpath)
    assert code == 2
    assert json.loads(out)["status"] == "CONSTRUCTION_FAILED"
    assert err.strip() == message


def test_flagged_result_written_to_out_file(capsys, tmp_path):
    code, printed, _ = run_cli(capsys, "membership", "--family-a", "1.0")
    assert code == 2
    out_path = tmp_path / "membership.json"
    code, out, err = run_cli(capsys, "membership", "--family-a", "1.0", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "unit sphere" in err
    assert out_path.read_bytes() == printed.encode("utf-8")


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


def test_decompose_keeps_a_small_non_constant_part(capsys, tmp_path):
    # (1 - 5e-7) + 5e-7 z lies on the sphere and splits as (1 - 5e-7) * 1 + 5e-7 z
    path = tmp_path / "f0.json"
    path.write_text('{"h": [[0.9999995, 0], [5e-7, 0]], "g": [[0, 0]]}')
    code, out, _ = run_cli(capsys, "decompose", "--mapping", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "DECOMPOSED"
    assert payload["lambda1"] == 0.9999995
    assert np.abs(np.subtract(payload["f"]["h"][1], [1.0, 0.0])).max() <= 1e-9


def test_output_file_option(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "beta", "--family-a", "1.0", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert abs(json.loads(out_path.read_text())["beta"] - 1.0) <= 1e-8


@pytest.mark.parametrize("command", [["beta", "--family-a", "1.0"],
                                     ["certify-support", "--family-a", "0.75", "--samples", "64"],
                                     ["mu-grid", "--family-a", "1.0", "--grid", "160x320"]],
                         ids=["json", "certificate", "csv"])
def test_output_file_holds_the_printed_bytes(capsys, tmp_path, command):
    code, printed, _ = run_cli(capsys, *command)
    out_path = tmp_path / "payload.out"
    assert run_cli(capsys, *command, "--out", str(out_path))[:2] == (code, "")
    assert out_path.read_bytes() == printed.encode("utf-8")


def test_mu_grid_file_holds_each_value_in_17_significant_digits(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "mu-grid", "--family-a", "0.75", "--grid", "160x320",
                           "--out", str(out_path))
    assert (code, out) == (0, "")
    rows = mu_grid_rows(counterexample_family(0.75), 160, 320)
    text = "\n".join(["re,im,mu"] + [",".join(format(float(x), ".17g") for x in row)
                                     for row in rows]) + "\n"
    assert out_path.read_bytes() == text.encode()


@pytest.mark.parametrize("command", [["beta", "--family-a", "1.0"],
                                     ["mu-grid", "--family-a", "1.0", "--grid", "2x4"]],
                         ids=["json", "csv"])
def test_unwritable_output_file_is_a_one_line_error(capsys, tmp_path, command):
    out_path = tmp_path / "missing" / "report.out"
    code, out, err = run_cli(capsys, *command, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(out_path) in err
    assert not out_path.parent.exists()


def test_out_of_memory_is_a_one_line_error(capsys, tmp_path, monkeypatch):
    # a grid too large to allocate, without allocating it
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape "
                          "(100000, 100000) and data type complex128")

    monkeypatch.setattr(cli, "mu_grid_rows", too_large)
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "mu-grid", "--family-a", "1", "--grid", "100000x100000",
                             "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Unable to allocate" in err
    assert not out_path.exists()


def test_empty_output_path_is_an_error(capsys):
    # an empty --out names no file: it fails to open instead of falling back
    # to stdout
    code, out, err = run_cli(capsys, "beta", "--family-a", "1.0", "--out", "")
    assert (code, out) == (1, "")
    assert len(err.strip().splitlines()) == 1


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
    code, out, err = run_cli(capsys, "beta", "--mapping", path, "--family-a", "1.0")
    assert code == 1
    assert out == ""
    assert "--mapping" in err and "--family-a" in err


# each call leaves out options its subcommand requires; stderr names them all
MISSING_REQUIRED = {
    "sharpen": (["sharpen", "--family-a", "1.0"], ["--z0", "--delta0"]),
    "sharpen-z0-only": (["sharpen", "--family-a", "1.0", "--z0", "0"], ["--delta0"]),
    "sharpen-mapping": (["sharpen", "--z0", "0", "--delta0", "0.9"], ["--mapping", "--family-a"]),
    "midpoint": (["midpoint", "--family-a", "1.0"], ["--a"]),
    "functional": (["functional", "--family-a", "1.0"], ["--functional"]),
    "falsify": (["falsify", "--family-a", "1.0"], ["--functional"]),
    "bonk": (["bonk"], ["--m"]),
    "counterexample": (["counterexample"], ["--family-a"]),
}


@pytest.mark.parametrize("argv, missing", MISSING_REQUIRED.values(), ids=MISSING_REQUIRED.keys())
def test_missing_required_option_is_named(capsys, argv, missing):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    for option in missing:
        assert option in err


def test_help_shows_required_options_unbracketed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sharpen", "--help"])
    assert exc.value.code == 0
    # the usage block ends at the first blank line; wrapping may split it
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert "(--mapping FILE | --family-a A)" in usage
    assert "--z0 RE[,IM]" in usage and "[--z0" not in usage
    assert "--delta0 DELTA0" in usage and "[--delta0" not in usage


def test_grid_with_non_decimal_digits_is_rejected_with_the_grid_message(capsys):
    # "²".isdigit() holds, but int() refuses it
    code, out, err = run_cli(capsys, "mu-grid", "--family-a", "1", "--grid", "²x4")
    assert code == 1
    assert out == ""
    assert "grid sizes are written RxT" in err
    assert "_parse_grid" not in err


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


# well-formed JSON that is not a mapping: only JSON numbers may stand for
# coefficients and tail bounds, never bool, str or lists
BIG_INT = "1" + "0" * 400
MALFORMED_MAPPINGS = {
    "tail-list": '{"h": [[0, 0], [1, 0]], "g": [[0, 0]], "tail_bound_h": [1]}',
    "tail-true": '{"h": [[0, 0], [1, 0]], "g": [[0, 0]], "tail_bound_h": true}',
    "tail-string": '{"h": [[0, 0], [1, 0]], "g": [[0, 0]], "tail_bound_g": "1e-3"}',
    "tail-big-int": '{"h": [[0, 0], [1, 0]], "g": [[0, 0]], "tail_bound_h": %s}' % BIG_INT,
    "string-coefficient": '{"h": [["1", 0]], "g": [[0, 0]]}',
    "string-imaginary-part": '{"h": [[0, 0], [1, "0"]], "g": [[0, 0]]}',
    "true-coefficient": '{"h": [[0, 0], [true, 0]], "g": [[0, 0]]}',
    "false-in-g": '{"h": [[0, 0], [1, 0]], "g": [[0, 0], [false, 0]]}',
    "string-pair": '{"h": [[0, 0], "10"], "g": [[0, 0]]}',
    "three-numbers": '{"h": [[0, 0, 0], [1, 0]], "g": [[0, 0]]}',
    "big-int-coefficient": '{"h": [[0, 0], [%s, 0]], "g": [[0, 0]]}' % BIG_INT,
}


@pytest.mark.parametrize("text", MALFORMED_MAPPINGS.values(), ids=MALFORMED_MAPPINGS.keys())
def test_mapping_file_accepts_only_json_numbers(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "beta", "--mapping", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "'h'" in err or "'g'" in err or "tail_bound" in err


MALFORMED_FUNCTIONALS = {
    "string-weight": '{"A": [["1", 0]], "B": []}',
    "true-weight": '{"A": [[0, 0], [true, 0]], "B": []}',
    "string-in-b": '{"A": [[0, 0], [1, 0]], "B": [[0, "1e-3"]]}',
    "bare-number": '{"A": [[0, 0], [1, 0]], "B": [1]}',
    "big-int-weight": '{"A": [[0, 0], [%s, 0]], "B": []}' % BIG_INT,
}


@pytest.mark.parametrize("text", MALFORMED_FUNCTIONALS.values(), ids=MALFORMED_FUNCTIONALS.keys())
@pytest.mark.parametrize("command", ["functional", "falsify"])
def test_functional_file_accepts_only_json_numbers(capsys, tmp_path, command, text):
    mpath = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    fpath = tmp_path / "L.json"
    fpath.write_text(text)
    code, out, err = run_cli(capsys, command, "--mapping", mpath, "--functional", str(fpath))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "'A'" in err or "'B'" in err


def test_integer_and_infinite_json_numbers_are_accepted(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"h": [[0, 0], [1, 0]], "g": [[0, 0]], "tail_bound_h": 0}')
    code, out, _ = run_cli(capsys, "beta", "--mapping", str(path))
    assert code == 0
    assert json.loads(out)["beta"] == 1.0
    # an unbounded tail is a declared Infinity, which json reads as a float
    path.write_text('{"h": [[0, 0], [0.5, 0]], "g": [[0, 0]], "tail_bound_h": Infinity}')
    assert load_mapping(str(path)).h.tail_bound == float("inf")


def test_error_bad_family_parameter(capsys):
    code, _, err = run_cli(capsys, "beta", "--family-a", "2.5")
    assert code == 1
    assert "0 < a < 2" in err


# the level tolerance is a constant, so a --tol of any value, here in the
# --tol=VALUE spelling, fails at the parser before any analysis runs
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6"])
@pytest.mark.parametrize("command", ["extreme-check", "lambda", "certify-support", "decompose"])
def test_non_positive_or_non_finite_tol_is_rejected(capsys, command, tol):
    samples = ["--samples", "16"] if command == "certify-support" else []
    code, out, err = run_cli(capsys, command, "--family-a", "1.0", f"--tol={tol}", *samples)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: --tol={tol}" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_falsify_rejects_non_finite_tol(capsys, tmp_path, tol):
    mpath = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    code, out, err = run_cli(capsys, "falsify", "--mapping", mpath,
                             "--functional", fpath, f"--tol={tol}")
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: --tol={tol}" in err


@pytest.mark.parametrize("delta0", ["nan", "inf", "0", "-0.5"])
def test_sharpen_rejects_bad_radius(capsys, tmp_path, delta0):
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, out, err = run_cli(capsys, "sharpen", "--mapping", path,
                             "--z0", "0", f"--delta0={delta0}")
    assert code == 1
    assert out == ""
    assert err.strip() == "delta0 must be a positive finite number"


def test_sharpen_rejects_empty_exponent_range(capsys, tmp_path):
    # the exponent cap is a constant, so no exponent range can be asked for
    path = write_mapping(tmp_path, "id.json", [0.0, 1.0], [0.0])
    code, out, err = run_cli(capsys, "sharpen", "--mapping", path, "--z0", "0",
                             "--delta0", "0.9", "--n-max=0")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --n-max=0" in err


# a valid call of each subcommand, and the options it does not read
VALID_CALLS = {
    "beta": ["--family-a", "1.0"],
    "mu-grid": ["--family-a", "1.0", "--grid", "2x4"],
    "lambda": ["--family-a", "1.0"],
    "membership": ["--family-a", "0.5"],
    "counterexample": ["--family-a", "0.5"],
    "midpoint": ["--family-a", "1.0", "--a", "0.5"],
    "extreme-check": ["--family-a", "1.0"],
    "sharpen": ["--family-a", "1.0", "--z0", str(INV_SQRT3), "--delta0", "0.4"],
    "functional": ["--family-a", "1.0", "--functional", "L.json"],
    "certify-support": ["--family-a", "1.0", "--samples", "16"],
    "bonk": ["--m", "2.0", "--samples", "100"],
    "falsify": ["--family-a", "1.0", "--functional", "L.json"],
    "decompose": ["--family-a", "1.0"],
}
IGNORED_OPTIONS = (
    [(c, ["--tol", "1e-3"]) for c in VALID_CALLS]
    + [(c, [flag, "7"]) for c in VALID_CALLS if c not in ("certify-support", "bonk")
       for flag in ("--samples", "--seed")]
    + [(c, ["--grid", "8x16"]) for c in VALID_CALLS if c != "mu-grid"]
    + [(c, ["--mapping", "f.json"]) for c in ("counterexample", "bonk")]
    + [("bonk", ["--family-a", "1.0"]), ("sharpen", ["--n-max", "8"])]
)


@pytest.mark.parametrize("command, option", IGNORED_OPTIONS,
                         ids=[f"{c}{o[0]}" for c, o in IGNORED_OPTIONS])
def test_option_the_subcommand_does_not_read_is_rejected(capsys, tmp_path, monkeypatch,
                                                         command, option):
    monkeypatch.chdir(tmp_path)
    write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    code, out, err = run_cli(capsys, command, *VALID_CALLS[command], *option)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["certify-support", "--family-a", "1.0", "--samples", "0"],
    ["bonk", "--m", "2.0", "--samples", "0"],
], ids=["certify-support", "bonk"])
def test_zero_samples_is_an_error_not_the_default(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "sample" in err


@pytest.mark.parametrize("argv", [
    ["certify-support", "--family-a", "1.0", "--samples", "16"],
    ["bonk", "--m", "2.0", "--samples", "100"],
], ids=["certify-support", "bonk"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_bad_seed_fails_before_any_analysis(capsys, monkeypatch, argv, seed):
    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran on a bad seed")

    for name in ("support_certificate", "bonk_constants", "verify_bonk_constants"):
        monkeypatch.setattr(cli, name, analysis)
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert code == 1
    assert out == ""
    assert "--seed" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_payload_is_a_one_line_error(capsys, tmp_path):
    mpath = write_mapping(tmp_path, "huge.json", [0.0, 1e308], [0.0])
    fpath = write_functional(tmp_path, "L.json", [[0.0, 0.0], [1e308, 0.0]], [[0.0, 0.0]])
    code, out, err = run_cli(capsys, "functional", "--mapping", mpath, "--functional", fpath)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "non-finite" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_mu_grid_is_a_one_line_error(capsys, tmp_path):
    # h' overflows near the rim: the row at z = 1 - 1e-9 holds mu = inf
    path = write_mapping(tmp_path, "huge.json", [0.0, 1e308, 5e307], [0.0])
    out_path = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "mu-grid", "--mapping", path, "--grid", "2x2",
                             "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "non-finite" in err
    assert not out_path.exists()

def test_tailed_level_set_is_flagged_and_decides_nothing(capsys, tmp_path):
    # mu of 0.9995 z stays below the level, but a declared tail of 1e-3 could
    # lift it there
    path = write_mapping(tmp_path, "tailed.json", [0.0, 0.9995], [0.0], tail_h=1e-3)
    code, out, err = run_cli(capsys, "lambda", "--mapping", path)
    assert code == 2
    assert json.loads(out)["flagged"] is True
    assert "tails" in err
    code, out, _ = run_cli(capsys, "extreme-check", "--mapping", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "UNRESOLVED"
    code, out, err = run_cli(capsys, "certify-support", "--mapping", path, "--samples", "16")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    path = write_mapping(tmp_path, "f0.json", [0.3, 0.7 * 0.9995], [0.0], tail_h=7e-4)
    code, out, err = run_cli(capsys, "decompose", "--mapping", path)
    assert code == 1
    assert out == ""
    assert "flagged" in err


def test_the_unit_ball_boundary_is_one_for_every_command(capsys, tmp_path):
    # beta sits 5e-7 from one, beyond its reported accuracy of 1e-12 and
    # inside LEVEL_TOL: membership's answer decides every command
    inside = write_mapping(tmp_path, "inside.json", [0.0, 0.9999995], [0.0])
    code, out, _ = run_cli(capsys, "lambda", "--mapping", inside)
    assert (code, json.loads(out)["classification"]) == (0, "EMPTY")
    for command in ("decompose", "certify-support"):
        code, out, _ = run_cli(capsys, command, "--mapping", inside)
        assert (code, json.loads(out)["status"]) == (0, "NONE")
    code, out, _ = run_cli(capsys, "extreme-check", "--mapping", inside)
    assert (code, json.loads(out)["verdict"]) == (0, "NOT_EXTREME")
    outside = write_mapping(tmp_path, "outside.json", [0.0, 1.0000005], [0.0])
    code, out, err = run_cli(capsys, "lambda", "--mapping", outside)
    assert (code, json.loads(out)["flagged"]) == (2, True)
    assert "outside the unit ball" in err
    for command in ("decompose", "certify-support", "extreme-check"):
        code, out, err = run_cli(capsys, command, "--mapping", outside)
        assert (code, out) == (1, "")
        assert len(err.strip().splitlines()) == 1


def test_falsify_decompose_and_lambda_read_the_one_flag(capsys, tmp_path):
    # the modulus of c z peaks at 1 + 5e-7, outside the modulus ball
    over = write_mapping(tmp_path, "over.json", [0.0, 2.5980775103915], [0.0])
    fpath = write_functional(tmp_path, "a1.json", [[0, 0], [1, 0]], [[0, 0]])
    code, out, err = run_cli(capsys, "falsify", "--mapping", over, "--functional", fpath)
    assert (code, out) == (1, "")
    assert "modulus ball" in err
    # a constant of norm 1 - 5e-7 lies inside the ball: no support point
    inside = write_mapping(tmp_path, "const.json", [0.9999995], [0.0])
    code, out, _ = run_cli(capsys, "decompose", "--mapping", inside)
    assert (code, json.loads(out)["status"]) == (0, "NONE")
    # 0.5 z with a declared tail of 1e-3 stays short of the level: unflagged
    short = write_mapping(tmp_path, "short.json", [0.0, 0.5], [0.0], tail_h=1e-3)
    code, out, _ = run_cli(capsys, "lambda", "--mapping", short)
    payload = json.loads(out)
    assert (code, payload["classification"], payload["flagged"]) == (0, "EMPTY", False)


# every subcommand that reads a mapping, with its other options
MAPPING_CALLS = {c: argv[2:] for c, argv in VALID_CALLS.items()
                 if argv[:1] == ["--family-a"] and c != "counterexample"}
ANALYSES = ("estimate_bloch_constant", "mu_grid_rows", "lambda_set", "membership",
            "midpoint_check", "extreme_necessity", "sharpening_exponent", "functional_eval",
            "support_certificate", "perturbation_falsifier", "decompose_support_point")


@pytest.mark.parametrize("command", MAPPING_CALLS)
def test_unbounded_tail_fails_before_any_analysis(capsys, tmp_path, monkeypatch, command):
    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran on an unbounded tail")

    for name in ANALYSES:
        monkeypatch.setattr(cli, name, analysis)
    monkeypatch.chdir(tmp_path)
    write_functional(tmp_path, "L.json", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
    path = tmp_path / "f.json"
    path.write_text('{"h": [[0.3, 0], [0.7, 0]], "g": [[0, 0]], "tail_bound_h": Infinity}')
    code, out, err = run_cli(capsys, command, "--mapping", str(path), *MAPPING_CALLS[command])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "unbounded tail" in err


VALID_MAPPING = {"h": [[0.0, 0.0], [0.4, 0.1], [0.1, -0.2]],
                 "g": [[0.0, 0.0], [0.0, 0.0], [0.05, 0.1]], "tail_bound_h": 1e-9}
VALID_WEIGHTS = {"A": [[0.0, 0.0], [1.0, 0.5]], "B": [[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]]}


def corrupted(data, keys, kind, rng):
    """A copy of the JSON object ``data`` with one corruption of ``kind`` in
    one of its coefficient lists ``keys``."""
    data = json.loads(json.dumps(data))
    key = keys[rng.integers(len(keys))]
    pairs = data[key]
    i = int(rng.integers(len(pairs)))
    if kind == "dropped-key":
        del data[key]
    elif kind == "not-a-list":
        data[key] = [{"0": 1.0}, "pairs", 1.0][rng.integers(3)]
    elif kind == "empty-h":
        data["h"] = []
    elif kind == "pair-length":
        pairs[i] = pairs[i][:1] if rng.integers(2) else pairs[i] + [0.0]
    elif kind == "not-a-number":
        pairs[i][rng.integers(2)] = ["1.0", True, [1.0], None][rng.integers(4)]
    else:
        data["tail_bound_" + key] = [-1e-3, "1e-3", True, [1e-3]][rng.integers(4)]
    return data


MAPPING_CORRUPTIONS = ("dropped-key", "not-a-list", "empty-h", "pair-length",
                       "not-a-number", "bad-tail")
# an empty weight list is a valid functional, and weight files carry no tails
WEIGHT_CORRUPTIONS = ("dropped-key", "not-a-list", "pair-length", "not-a-number")


@pytest.mark.parametrize("seed", range(20))
def test_one_random_corruption_fails_at_the_boundary(capsys, tmp_path, seed):
    rng = np.random.default_rng(seed)
    good_mapping = tmp_path / "f.json"
    good_mapping.write_text(json.dumps(VALID_MAPPING))
    good_weights = tmp_path / "L.json"
    good_weights.write_text(json.dumps(VALID_WEIGHTS))
    bad_mapping = tmp_path / "bad_f.json"
    kind = MAPPING_CORRUPTIONS[seed % len(MAPPING_CORRUPTIONS)]
    bad_mapping.write_text(json.dumps(corrupted(VALID_MAPPING, ["h", "g"], kind, rng)))
    bad_weights = tmp_path / "bad_L.json"
    kind = WEIGHT_CORRUPTIONS[seed % len(WEIGHT_CORRUPTIONS)]
    bad_weights.write_text(json.dumps(corrupted(VALID_WEIGHTS, ["A", "B"], kind, rng)))
    calls = [["beta", "--mapping", bad_mapping],
             ["lambda", "--mapping", bad_mapping],
             ["functional", "--mapping", bad_mapping, "--functional", good_weights],
             ["functional", "--mapping", good_mapping, "--functional", bad_weights]]
    for argv in calls:
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 1, argv
        assert out == ""
        assert len(err.strip().splitlines()) == 1
    # the uncorrupted files are accepted
    code, _, _ = run_cli(capsys, "functional", "--mapping", str(good_mapping),
                         "--functional", str(good_weights))
    assert code == 0
