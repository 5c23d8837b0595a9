"""File formats and the command-line surface, including exit codes."""

import json
from dataclasses import replace
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from infocost import ForwardProblem, cli, io, lp, solve_forward, variance_cost
from infocost.io import InputError
from infocost.model import validate_dataset
from infocost.piecewise import PiecewiseScalarFunction
from infocost.recovery import RationalizationReport, verify_rationalization
from test_axioms import forged_flattest_solve


def fixture_path(name: str) -> str:
    return str(resources.files("infocost.fixtures").joinpath(name))


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


class TestDatasetFormat:
    def test_bundled_dataset_parses_and_validates(self):
        doc = json.loads(Path(fixture_path("example3_dataset.json")).read_text())
        ds = io.parse_dataset(doc)
        assert validate_dataset(ds).ok

    def test_roundtrip_through_serialization(self):
        doc = json.loads(Path(fixture_path("example3_dataset.json")).read_text())
        ds = io.parse_dataset(doc)
        again = io.parse_dataset(io.dataset_out(ds))
        assert again.state_space.states == ds.state_space.states
        assert again.observations[0].sdsc.rows == ds.observations[0].sdsc.rows
        assert again.observations[0].menu.acts == ds.observations[0].menu.acts

    def test_rational_strings_survive_exactly(self):
        doc = json.loads(Path(fixture_path("example3_dataset.json")).read_text())
        ds = io.parse_dataset(doc)
        assert ds.state_space.states[1] == F(1, 3)

    def test_decimal_priors_accepted(self):
        doc = {
            "states": ["0", "1"],
            "priors": {"p": [0.49, 0.51]},
            "menus": {"m": [{"id": "a", "u0": "0", "u1": "0"}]},
            "observations": [
                {"prior_ref": "p", "menu_ref": "m", "sigma": [["1", "1"]]}
            ],
        }
        ds = io.parse_dataset(doc)
        assert ds.observations[0].prior.weights == (F(49, 100), F(51, 100))

    def test_payoff_table_accepted_when_affine(self):
        doc = {
            "states": ["0", "1/2", "1"],
            "priors": {"p": ["1/4", "1/2", "1/4"]},
            "menus": {"m": [{"id": "a", "payoffs": ["1", "1/2", "0"]}]},
            "observations": [
                {"prior_ref": "p", "menu_ref": "m", "sigma": [["1", "1", "1"]]}
            ],
        }
        ds = io.parse_dataset(doc)
        act = ds.observations[0].menu.acts[0]
        assert (act.u0, act.u1) == (F(1), F(0))

    def test_payoff_table_rejected_when_not_affine(self):
        doc = {
            "states": ["0", "1/2", "1"],
            "priors": {"p": ["1/4", "1/2", "1/4"]},
            "menus": {"m": [{"id": "a", "payoffs": ["1", "3/4", "0"]}]},
            "observations": [
                {"prior_ref": "p", "menu_ref": "m", "sigma": [["1", "1", "1"]]}
            ],
        }
        with pytest.raises(InputError):
            io.parse_dataset(doc)

    def test_anonymous_single_prior_list(self):
        doc = {
            "states": ["0", "1"],
            "priors": ["1/2", "1/2"],
            "menus": {"m": [{"id": "a", "u0": "0", "u1": "0"}]},
            "observations": [{"menu_ref": "m", "sigma": [["1", "1"]]}],
        }
        assert validate_dataset(io.parse_dataset(doc)).ok

    def test_unknown_refs_rejected(self):
        doc = {
            "states": ["0", "1"],
            "priors": {"p": ["1/2", "1/2"]},
            "menus": {"m": [{"id": "a", "u0": "0", "u1": "0"}]},
            "observations": [
                {"prior_ref": "zzz", "menu_ref": "m", "sigma": [["1", "1"]]}
            ],
        }
        with pytest.raises(InputError):
            io.parse_dataset(doc)


class TestScalarForms:
    def test_scalar_out_carries_exact_and_approx(self):
        out = io.scalar_out(F(1, 3))
        assert out["exact"] == "1/3"
        assert abs(out["approx"] - 1 / 3) < 1e-12

    def test_scalar_in_prefers_exact(self):
        assert io.scalar_in({"exact": "1/3", "approx": 0.3}) == F(1, 3)

    def test_function_roundtrip(self):
        fn = PiecewiseScalarFunction.from_points(
            [(F(0), F(1)), (F(1, 3), F(0)), (F(1), F(2))]
        )
        again = io.function_in(io.function_out(fn))
        assert again.breakpoint_values() == fn.breakpoint_values()


class TestCliExitCodes:
    def test_validate_ok(self, capsys):
        assert run_cli("validate", fixture_path("example3_dataset.json")) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True

    def test_validate_names_the_violation(self, tmp_path, capsys):
        doc = json.loads(Path(fixture_path("example3_dataset.json")).read_text())
        doc["observations"][0]["sigma"][0][0] = "9/10"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", str(bad)) == 1
        out = json.loads(capsys.readouterr().out)
        assert any("sums to" in p for p in out["problems"])

    def test_malformed_json_is_exit_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"states": [1,,]}')
        assert run_cli("validate", str(bad)) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_check_passes_on_bundled_dataset(self, capsys):
        assert run_cli("check", fixture_path("example3_dataset.json")) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nias"]["passed"] and out["nipmc"]["passed"]
        assert out["nipmc"]["multipliers"] is not None

    def test_check_rejects_violation_fixture(self, capsys):
        assert run_cli("check", fixture_path("nipmc_violation.json")) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["nias"]["passed"]
        assert not out["nipmc"]["passed"]
        assert out["nipmc"]["certificate"]
        assert "traded against" in out["nipmc"]["explanation"]

    def test_check_dump_lp(self, tmp_path, capsys):
        dump = tmp_path / "system.lp"
        assert (
            run_cli(
                "check",
                fixture_path("nipmc_violation.json"),
                "--dump-lp",
                str(dump),
            )
            == 1
        )
        assert "Subject To" in dump.read_text()

    def test_nias_violation_reports_witness(self, tmp_path, capsys):
        doc = {
            "states": ["0", "1"],
            "priors": {"p": ["1/2", "1/2"]},
            "menus": {
                "m": [
                    {"id": "bad", "u0": "0", "u1": "0"},
                    {"id": "good", "u0": "1", "u1": "1"},
                ]
            },
            "observations": [
                {"prior_ref": "p", "menu_ref": "m",
                 "sigma": [["1", "1"], ["0", "0"]]}
            ],
        }
        path = tmp_path / "nias.json"
        path.write_text(json.dumps(doc))
        assert run_cli("check", str(path)) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["nias"]["violations"][0]["chosen"] == "bad"
        assert out["nipmc"] == {"skipped": "action-switch violations found"}

    def test_recover_emits_all_true_report(self, capsys):
        assert run_cli("recover", fixture_path("example3_dataset.json")) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rationalization"]["all_ok"] is True
        flags = out["rationalization"]["observations"][0]
        assert all(
            flags[k]
            for k in (
                "price_convex",
                "price_majorizes",
                "contact_at_revealed",
                "affine_off_binding",
                "integral_match",
            )
        )

    def test_recover_rejects_violation_fixture(self, capsys):
        assert run_cli("recover", fixture_path("nipmc_violation.json")) == 1

    def test_recover_failed_audit_is_exit_1(self, monkeypatch, capsys):
        def failing_audit(dataset, cost, prices):
            report = verify_rationalization(dataset, cost, prices)
            bad = replace(report.audits[0], price_majorizes=False)
            return RationalizationReport(audits=(bad, *report.audits[1:]))

        monkeypatch.setattr(cli, "verify_rationalization", failing_audit)
        assert run_cli("recover", fixture_path("example3_dataset.json")) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rationalization"]["all_ok"] is False
        assert "rationalization audit failed" in captured.err

    def test_failed_recheck_is_exit_1_without_traceback(self, monkeypatch, capsys):
        real_solve = lp.solve

        def corrupted(program, **kwargs):
            outcome = real_solve(program, **kwargs)
            beta = list(outcome.x)
            i = next(i for i, w in enumerate(beta) if w != 0)
            beta[i] = -beta[i]
            return replace(outcome, x=tuple(beta))

        monkeypatch.setattr(lp, "solve", corrupted)
        assert run_cli("check", fixture_path("nipmc_violation.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_forged_flattest_minimum_is_exit_1(self, monkeypatch, capsys):
        path = Path(__file__).parent / "golden" / "generated_s0.json"
        forged, _ = forged_flattest_solve(io.parse_dataset(json.loads(path.read_text())))
        monkeypatch.setattr(lp, "solve", forged)
        assert run_cli("check", str(path), "--flattest") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification error: ")
        assert captured.err.count("\n") == 1

    def test_emitted_cost_and_price_reverify(self, capsys):
        run_cli("recover", fixture_path("example3_dataset.json"))
        out = json.loads(capsys.readouterr().out)
        doc = json.loads(Path(fixture_path("example3_dataset.json")).read_text())
        ds = io.parse_dataset(doc)
        cost = io.function_in(out["cost"])
        prices = [io.function_in(p) for p in out["prices"]]
        assert verify_rationalization(ds, cost, prices).all_ok

    def test_solve_reports_expected_atoms(self, capsys):
        assert run_cli("solve", fixture_path("example3_forward.json")) == 0
        out = json.loads(capsys.readouterr().out)
        atoms = [(d["location"]["exact"], d["mass"]["exact"]) for d in out["distribution"]]
        assert atoms == [("1/6", "1/2"), ("5/6", "1/2")]
        assert out["acts"] == ["a1", "a3"]

    def test_solve_with_oracle_and_csv(self, tmp_path, capsys):
        figdir = tmp_path / "figs"
        code = run_cli(
            "solve",
            fixture_path("example3_forward.json"),
            "--refine",
            "50",
            "--figures-csv",
            str(figdir),
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["matches"] is True
        assert (figdir / "price.csv").read_text().startswith("x,y")

    def test_solve_grid_add_keeps_the_value(self, capsys):
        run_cli("solve", fixture_path("example3_forward.json"))
        base = json.loads(capsys.readouterr().out)["value"]["exact"]
        run_cli("solve", fixture_path("example3_forward.json"), "--grid-add", "7")
        refined = json.loads(capsys.readouterr().out)["value"]["exact"]
        assert base == refined

    def test_solve_variance_kappa_cost(self, tmp_path, capsys):
        """A ``variance_kappa`` cost is the variance cost at the prior mean."""
        doc = json.loads(Path(fixture_path("example3_forward.json")).read_text())
        doc["cost"] = {"variance_kappa": "1/4"}
        spec = tmp_path / "variance.json"
        spec.write_text(json.dumps(doc))
        problem = io.parse_forward_problem(doc)
        sol = solve_forward(ForwardProblem.build(
            problem.prior, problem.menu, variance_cost(F(1, 4), problem.prior.mean)
        ))
        assert sol.value == F(5, 32)
        assert run_cli("solve", str(spec), "--refine", "20") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"]["exact"] == "5/32"
        atoms = [(d["location"]["exact"], d["mass"]["exact"]) for d in out["distribution"]]
        assert atoms == [("0", "1/4"), ("1/2", "1/2"), ("1", "1/4")]
        assert sol.distribution.atoms == ((F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4)))
        assert out["oracle"]["value"]["exact"] == "5/32"
        assert out["oracle"]["matches"] is True

    @pytest.mark.parametrize(
        "variance_kappa, shift, code",
        [(None, 1, 1), (None, -1, 1), ("1/4", 1, 0), ("1/4", -1, 1)],
    )
    def test_solve_refine_exit_code_follows_the_oracle(
        self, tmp_path, monkeypatch, capsys, variance_kappa, shift, code
    ):
        """A refined value off the optimum of a piecewise-affine objective,
        or below the optimum of a quadratic one, exits 1 after the report."""
        doc = json.loads(Path(fixture_path("example3_forward.json")).read_text())
        if variance_kappa:
            doc["cost"] = {"variance_kappa": variance_kappa}
        spec = tmp_path / "forward.json"
        spec.write_text(json.dumps(doc))
        optimum = solve_forward(io.parse_forward_problem(doc)).value
        monkeypatch.setattr(cli, "oracle_value", lambda problem, resolution: optimum + shift)
        assert run_cli("solve", str(spec), "--refine", "16") == code
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["oracle"]["matches"] is False
        assert io.scalar_in(out["oracle"]["value"]) == optimum + shift
        assert captured.err == ("oracle value disagrees with the optimum\n" if code else "")

    def test_cost_without_a_known_key_is_input_error(self, tmp_path, capsys):
        doc = json.loads(Path(fixture_path("example3_forward.json")).read_text())
        doc["cost"] = {"kappa": "1/4"}
        spec = tmp_path / "nocost.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("solve", str(spec)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: cost needs 'breakpoints' or 'variance_kappa'\n"

    def test_concavity_budget_zero_is_resource_exit(self, capsys):
        code = run_cli(
            "concavity", fixture_path("example3_dataset.json"), "--budget", "0"
        )
        assert code == 3
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "budget_exceeded"

    def test_concavity_certifies_single_observation(self, capsys):
        assert run_cli("concavity", fixture_path("example3_dataset.json")) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "certified"
        assert out["programs_solved"] == 1

    def test_generate_then_check_roundtrip(self, tmp_path, capsys):
        generated = tmp_path / "generated.json"
        assert (
            run_cli(
                "generate",
                fixture_path("example3_generate.json"),
                "--output",
                str(generated),
            )
            == 0
        )
        assert run_cli("check", str(generated)) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("states", ["0", "2/3", "1/3", "1"], "states not strictly increasing at 2/3, 1/3"),
            ("prior", ["0", "1/2", "1/4", "1/4"], "prior must put mass on state 0"),
            ("prior", ["1/4", "1/2", "1/4", "0"], "prior must put mass on state 1"),
        ],
        ids=["unsorted-states", "no-mass-at-0", "no-mass-at-1"],
    )
    def test_generate_rejects_a_spec_validate_would_reject(
        self, tmp_path, capsys, field, value, problem
    ):
        doc = json.loads(Path(fixture_path("example3_generate.json")).read_text())
        doc[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("generate", str(spec)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: generation spec is invalid: {problem}\n"

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("prior", ["1/2", "1/2"], "prior has 2 weights for 4 states"),
            ("states", ["0", "1/3", "1/3", "1"], "states not strictly increasing at 1/3, 1/3"),
            ("prior", ["1/2", "-1/4", "1/2", "1/4"], "prior weight at state 1/3 is negative"),
        ],
        ids=["two-weights-for-four-states", "repeated-state", "negative-weight"],
    )
    def test_solve_rejects_a_malformed_forward_problem(
        self, tmp_path, capsys, field, value, problem
    ):
        doc = json.loads(Path(fixture_path("example3_forward.json")).read_text())
        doc[field] = value
        spec = tmp_path / "forward.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("solve", str(spec)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: forward problem is invalid: {problem}\n"

    def test_solve_accepts_a_forward_prior_without_endpoint_mass(self, tmp_path, capsys):
        doc = json.loads(Path(fixture_path("example3_forward.json")).read_text())
        doc["prior"] = ["0", "1/2", "1/2", "0"]
        spec = tmp_path / "forward.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("solve", str(spec)) == 0
        assert json.loads(capsys.readouterr().out)["value"]["exact"] == "-39/8"

    @pytest.mark.parametrize(
        "command, flag",
        [("validate", "--output"), ("recover", "--figures-csv"), ("check", "--dump-lp")],
    )
    def test_unwritable_path_is_input_error(self, tmp_path, capsys, command, flag):
        """A missing directory, or for ``--figures-csv`` a file where a
        directory should be, exits 2 with one stderr line."""
        (tmp_path / "a_file").write_text("")
        target = tmp_path / ("a_file" if flag == "--figures-csv" else "missing/x")
        code = run_cli(command, fixture_path("example3_dataset.json"), flag, str(target))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, fixture, where, value",
        [
            ("solve", "example3_forward.json", ("prior", 1), True),
            ("solve", "example3_forward.json", ("prior", 1), None),
            ("solve", "example3_forward.json", ("prior", 1), [1]),
            ("check", "example3_dataset.json", ("states",), 3),
            ("check", "example3_dataset.json", ("observations", 0, "sigma", 0), 1),
        ],
        ids=["prior-true", "prior-null", "prior-list", "states-number", "sigma-row-number"],
    )
    def test_wrong_json_type_is_input_error(
        self, tmp_path, capsys, command, fixture, where, value
    ):
        doc = json.loads(Path(fixture_path(fixture)).read_text())
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run_cli(command, str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1

    def test_output_file_flag(self, tmp_path):
        target = tmp_path / "report.json"
        assert (
            run_cli(
                "validate",
                fixture_path("example3_dataset.json"),
                "--output",
                str(target),
            )
            == 0
        )
        assert json.loads(target.read_text())["valid"] is True

    def test_missing_file_is_input_error(self, capsys):
        assert run_cli("validate", "/nonexistent/nowhere.json") == 2

