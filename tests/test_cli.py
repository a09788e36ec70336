"""End-to-end tests for the command-line interface.

Each test drives ``conicstab.cli.main`` in-process with explicit argv,
captures stdout, and checks both the payload and the exit-code contract
(0 clean, 1 instability/inconsistency, 2 bad input).
"""

import json

import numpy as np
import pytest

import conicstab.cli
from conicstab.cli import main, parse_cone, parse_tol
from conicstab.cones import Orthant, Polyhedral, Product, PSD
from conicstab.constab import CERTIFIED_UNSTABLE, Verdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--output", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Cone descriptors and tolerance overrides
# ---------------------------------------------------------------------------


class TestDescriptors:
    def test_orthant_and_psd(self):
        assert isinstance(parse_cone("orthant:3"), Orthant)
        K = parse_cone("psd:2")
        assert isinstance(K, PSD) and K.dim == 3

    def test_product(self):
        K = parse_cone("prod:orthant:1,psd:2")
        assert isinstance(K, Product)
        assert K.dim == 4

    def test_poly_file(self, tmp_path):
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps([[1.0, 0.0], [1.0, 1.0]]))
        K = parse_cone(f"poly:@{path}")
        assert isinstance(K, Polyhedral) and K.dim == 2

    def test_poly_descriptor_file(self, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"type": "orthant", "n": 2}))
        assert isinstance(parse_cone(f"poly:@{path}"), Orthant)

    def test_unreadable_cone_file(self, tmp_path):
        from conicstab.cli import CliError

        with pytest.raises(CliError, match="cannot read"):
            parse_cone(f"poly:@{tmp_path / 'missing.json'}")
        path = tmp_path / "cone.json"
        path.write_text("[[1, 0], [1,")
        with pytest.raises(CliError, match="is not valid JSON"):
            parse_cone(f"poly:@{path}")

    def test_bad_descriptor(self):
        from conicstab.cli import CliError

        with pytest.raises(CliError):
            parse_cone("simplex:3")
        with pytest.raises(CliError):
            parse_cone("orthant:zero")

    def test_tol_overrides(self):
        tol = parse_tol("residual_tol=1e-5,sample_margin=0.01")
        assert tol.residual_tol == 1e-5
        assert tol.sample_margin == 0.01
        from conicstab.cli import CliError

        with pytest.raises(CliError):
            parse_tol("no_such_knob=1")
        with pytest.raises(CliError):
            parse_tol("residual_tol")

    @pytest.mark.parametrize("name", ["root_merge_tol", "stability_im_tol"])
    def test_removed_tolerance_name_exits_two(self, capsys, name):
        code, _, err = run_cli(
            capsys, "stab", "-e", "z1 + 1", "--cone", "orthant:1", "--tol", f"{name}=1e-7"
        )
        assert code == 2
        assert "unknown tolerance name" in err


# ---------------------------------------------------------------------------
# stab
# ---------------------------------------------------------------------------


class TestStab:
    def test_falsified_quadric_exits_one(self, capsys):
        code, data = run_json(
            capsys, "stab", "-e", "(z1+z3)^2 - z2^2", "--cone", "orthant:3",
            "--samples", "2000",
        )
        assert code == 1
        assert data["status"] == "falsified"
        assert data["route"] == "sampling"
        y = np.array([im for _, im in data["witness"]])
        assert min(abs(y[0] - y[1] + y[2]), abs(y[0] + y[1] + y[2])) <= 1e-6

    def test_matrix_form_survives(self, capsys):
        code, data = run_json(
            capsys, "stab", "-e", "z11*z22 - z12^2", "--cone", "psd:2",
            "--samples", "1500",
        )
        assert code == 0
        assert data["status"] == "not_falsified"
        assert data["samples"] == 1500

    def test_zero_polynomial_certified_unstable(self, capsys):
        code, data = run_json(capsys, "stab", "-e", "0", "--cone", "orthant:1")
        assert code == 1
        assert data["status"] == "certified_unstable"
        assert data["route"] == "exact-linear"

    def test_linear_route_is_exact(self, capsys):
        code, data = run_json(capsys, "stab", "-e", "z1 + z2 + 1", "--cone", "orthant:2")
        assert code == 0
        assert data["status"] == "certified_stable"
        assert data["route"] == "exact-linear"
        assert data["seed"] == 0

    @pytest.mark.parametrize("expr", ["z1 + z2 + 1e-15*i*z2 + 1", "1e6*z1 + 1e6*z2 + 1e-9*i*z2 + 1e6"])
    def test_linear_route_is_scale_free(self, capsys, expr):
        # Im a_2 is 7e-16 of ||a|| in both forms: the linear part is real.
        code, data = run_json(capsys, "stab", "-e", expr, "--cone", "orthant:2")
        assert code == 0
        assert data["status"] == "certified_stable"
        assert data["route"] == "exact-linear"

    def test_partial_matrix_expression_widens_variables(self, capsys):
        # z11 + z22 mentions two of the three psd:2 variables.
        code, data = run_json(capsys, "stab", "-e", "z11 + z22", "--cone", "psd:2")
        assert code == 0
        assert data["status"] == "certified_stable"

    def test_verify_flag_rechecks_witness(self, capsys):
        code, data = run_json(
            capsys, "stab", "-e", "z1 - z2", "--cone", "orthant:2",
            "--samples", "2000", "--verify",
        )
        assert code == 1
        assert data["verified"] is True

    def test_verify_flag_rechecks_tiny_linear_witness(self, capsys):
        code, data = run_json(
            capsys, "stab", "-e", "1e-10*z1 - 1e-10*z2 + 1", "--cone", "orthant:2", "--verify"
        )
        assert code == 1
        assert (data["route"], data["status"]) == ("exact-linear", "certified_unstable")
        assert data["verified"] is True

    def test_verify_flag_rejects_bad_exact_witness(self, capsys, monkeypatch):
        # An exact-route witness must be re-checked too: this one has
        # Im(z) = (1, 1) interior but f(z) = 1 + 0i, far above the bound.
        bad = Verdict(CERTIFIED_UNSTABLE, witness=np.array([1 + 1j, 1j]), certificate="planted")
        monkeypatch.setattr(conicstab.cli, "linear_k_stability", lambda *a, **k: bad)
        code, out, err = run_cli(
            capsys, "stab", "-e", "z1 - z2", "--cone", "orthant:2", "--verify", "--output", "json"
        )
        assert code == 1
        assert out == ""
        assert "failed re-verification" in err

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "stab", "-e", "z1 + @", "--cone", "orthant:1")
        assert code == 2
        assert "error" in err

    def test_dimension_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "stab", "-e", "z1 + z2 + z3", "--cone", "orthant:2")
        assert code == 2
        assert err

    def test_expression_from_file(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("z1 - z2\n")
        code, data = run_json(
            capsys, "stab", "-f", str(path), "--cone", "orthant:2", "--samples", "1000"
        )
        assert code == 1
        assert data["status"] == "certified_unstable"

    def test_missing_expression_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stab", "-f", str(tmp_path / "missing.txt"), "--cone", "orthant:1")
        assert code == 2
        assert "cannot read" in err

    def test_seed_echoed(self, capsys):
        code, data = run_json(
            capsys, "stab", "-e", "z1 - z2", "--cone", "orthant:2",
            "--samples", "500", "--seed", "9",
        )
        assert data["seed"] == 9

    def test_text_output_mentions_status(self, capsys):
        code, out, _ = run_cli(capsys, "stab", "-e", "z1 + 1", "--cone", "orthant:1")
        assert code == 0
        assert "certified_stable" in out

    def test_csv_rejected_for_verdicts(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stab", "-e", "z1", "--cone", "orthant:1", "--output", "csv"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# hko
# ---------------------------------------------------------------------------


class TestHko:
    def test_coordinate_pair_consistent_dirty(self, capsys):
        code, data = run_json(
            capsys, "hko", "-e", "z2", "-e", "z1", "--cone", "orthant:2",
            "--samples", "800",
        )
        assert code == 0
        assert data["consistent"] is True
        assert data["pencil_clean"] is False
        assert data["f_plus_ig"] == "falsified"
        assert data["g_plus_if"] == "falsified"
        assert data["falsified_members"] > 0
        assert data["inconsistencies"] == []

    def test_equal_pair_degenerate(self, capsys):
        code, data = run_json(
            capsys, "hko", "-e", "z1", "-e", "z1", "--cone", "orthant:1",
            "--samples", "500",
        )
        assert code == 0
        assert data["consistent"] is True
        assert data["pencil_clean"] is True
        assert data["combo_clean"] is True

    def test_needs_two_expressions(self, capsys):
        code, _, err = run_cli(capsys, "hko", "-e", "z1", "--cone", "orthant:1")
        assert code == 2
        assert "exactly 2" in err


# ---------------------------------------------------------------------------
# detstab
# ---------------------------------------------------------------------------


COUPLING = {
    "n": 2,
    "d": 2,
    "re_im": False,
    "blocks": [
        [[[1, 0], [0, 1]], [[0, 0.5], [0.5, 0]]],
        [[[0, 0.5], [0.5, 0]], [[1, 0], [0, 1]]],
    ],
}

INDEFINITE = {
    "n": 2,
    "d": 2,
    "re_im": False,
    "blocks": [
        [[[1, 0], [0, 5]], [[0, 2], [2, 0]]],
        [[[0, 2], [2, 0]], [[5, 0], [0, 1]]],
    ],
}


class TestDetstab:
    def test_certified_with_expansion(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(json.dumps(COUPLING))
        code, data = run_json(capsys, "detstab", "-f", str(path))
        assert code == 0
        assert data["outcome"] == "certified_stable"
        assert abs(data["lambda_min"] - 0.5) <= 1e-9
        assert "z11" in data["polynomial"] and "z12" in data["polynomial"]

    def test_printed_polynomial_text(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        for blocks, text in (
            (COUPLING, "(1)*z22^2 + (-1)*z12^2 + (2)*z11*z22 + (1)*z11^2"),
            (INDEFINITE, "(5)*z22^2 + (-16)*z12^2 + (26)*z11*z22 + (5)*z11^2"),
        ):
            path.write_text(json.dumps(blocks))
            _, data = run_json(capsys, "detstab", "-f", str(path), "--samples", "300")
            assert data["polynomial"] == text

    def test_not_certified_runs_falsifier(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(json.dumps(INDEFINITE))
        code, data = run_json(capsys, "detstab", "-f", str(path), "--samples", "1500")
        assert code == 0
        assert data["outcome"] == "not_certified"
        assert abs(data["lambda_min"] + 1.0) <= 1e-9
        assert data["falsifier"] == "not_falsified"

    def test_offset_file(self, capsys, tmp_path):
        a_path = tmp_path / "A.json"
        zero = np.zeros((2, 2, 2, 2))
        a_path.write_text(json.dumps({"n": 2, "d": 2, "re_im": False, "blocks": zero.tolist()}))
        b_path = tmp_path / "B.json"
        b_path.write_text(json.dumps(np.eye(2).tolist()))
        code, data = run_json(capsys, "detstab", "-f", str(a_path), "-f", str(b_path))
        assert code == 0
        assert data["outcome"] == "certified_stable"

    def test_identically_zero_exits_one(self, capsys, tmp_path):
        a_path = tmp_path / "A.json"
        zero = np.zeros((2, 2, 2, 2))
        a_path.write_text(json.dumps({"n": 2, "d": 2, "re_im": False, "blocks": zero.tolist()}))
        code, data = run_json(capsys, "detstab", "-f", str(a_path))
        assert code == 1
        assert data["outcome"] == "identically_zero"

    def test_identically_zero_prints_zero_polynomial(self, capsys, tmp_path):
        a_path = tmp_path / "A.json"
        zero = np.zeros((2, 2, 2, 2))
        a_path.write_text(json.dumps({"n": 2, "d": 2, "re_im": False, "blocks": zero.tolist()}))
        code, data = run_json(capsys, "detstab", "-f", str(a_path))
        assert code == 1
        assert data["polynomial"] == "0"

    def test_above_expansion_caps_certificate_only(self, capsys, tmp_path):
        # A 5 x 5 grid is above the expansion caps: no polynomial is printed
        # and an indefinite flattening gets no falsifier run.
        for blocks, outcome in ((np.eye(5), "certified_stable"), (np.eye(5) - 0.5, "not_certified")):
            path = tmp_path / "A.json"
            grid = blocks[:, :, None, None]
            path.write_text(json.dumps({"n": 5, "d": 1, "re_im": False, "blocks": grid.tolist()}))
            code, data = run_json(capsys, "detstab", "-f", str(path))
            assert code == 0
            assert data["outcome"] == outcome
            assert "polynomial" not in data and "falsifier" not in data

    def test_rejects_expressions(self, capsys):
        code, _, err = run_cli(capsys, "detstab", "-e", "z1")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "detstab", "-f", "/nonexistent.json")
        assert code == 2


# ---------------------------------------------------------------------------
# improj
# ---------------------------------------------------------------------------


class TestImproj:
    def test_csv_cloud_on_hyperplane(self, capsys):
        code, out, _ = run_cli(capsys, "improj", "-e", "z1 + z2 + 1", "--samples", "50")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y1,y2"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape[0] == 50
        assert np.max(np.abs(rows.sum(axis=1))) <= 1e-8

    def test_json_cloud(self, capsys):
        code, data = run_json(capsys, "improj", "-e", "z1^2 + 1", "--samples", "20")
        assert code == 0
        pts = np.asarray(data["points"])
        assert np.allclose(np.abs(pts), 1.0, atol=1e-8)

    def test_box_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "improj", "-e", "z1^2 + 1", "--samples", "10", "--box=-1,1"
        )
        assert code == 0

    def test_constant_rejected(self, capsys):
        code, _, err = run_cli(capsys, "improj", "-e", "5")
        assert code == 2


# ---------------------------------------------------------------------------
# Global flag validation
# ---------------------------------------------------------------------------


class TestGlobalFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stab", "-e", "z1", "--cone", "orthant:1", "--threads", "0"],
            ["stab", "-e", "z1", "--cone", "orthant:1", "--samples", "0"],
            ["stab", "-e", "z1", "--cone", "orthant:1", "--seed", "-1"],
        ],
    )
    def test_bad_values_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["hko", "-e", "z1", "-e", "z1", "--cone", "orthant:1", "--verify"],
            ["detstab", "-f", "A.json", "--verify"],
            ["improj", "-e", "z1", "--verify"],
        ],
    )
    def test_verify_is_a_stab_option_only(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_threads_do_not_change_results(self, capsys):
        _, a = run_json(
            capsys, "stab", "-e", "z1^2 - z2^2", "--cone", "orthant:2",
            "--samples", "800", "--threads", "1",
        )
        _, b = run_json(
            capsys, "stab", "-e", "z1^2 - z2^2", "--cone", "orthant:2",
            "--samples", "800", "--threads", "4",
        )
        assert a == b
