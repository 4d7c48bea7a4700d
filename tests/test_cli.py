import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SEGMENT_THROUGH_ORIGIN, TRIANGLE, far_vertex_kernel
from ppocp import certify, cli
from ppocp.core import DEFAULT_TOLERANCES, Polyhedron, Route, projection_result

# Square and nonsingular, so every route applies, nnls included.
SQUARE = [[3.0, 1.0], [1.0, 2.0]]
NEARLY_COLLINEAR = [
    [2.7994477098858166, 3.684311544172296, -1.8399501423975915],
    [0.08064196756289999, 0.9437460251275889, 2.223781739311237],
    [2.5096758879560017, 3.3922205531855574, -1.4068353475950903],
]


def write_instance(tmp_path, vertices, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"vertices": vertices}))
    return str(path)


def run_cli(capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProjectionRuns:
    def test_all_methods_on_triangle(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "--input", path, "--method", "all")
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "consensus"
        assert np.allclose(doc["rho"], [1.0, 1.0], atol=1e-8)
        assert doc["distance"] == pytest.approx(np.sqrt(2.0))
        assert doc["report"]["verdict"] == "agree"
        assert doc["report"]["routes"]["nnls"]["status"] == "not-applicable"
        assert doc["certificate"]["passed"] is True
        assert list(doc) == ["rho", "distance", "route", "origin_inside", "certificate", "report"]

    def test_single_method_wolfe_origin_inside(self, tmp_path, capsys):
        path = write_instance(tmp_path, SEGMENT_THROUGH_ORIGIN)
        code, out, _ = run_cli(capsys, "--input", path, "--method", "wolfe")
        assert code == 0
        doc = json.loads(out)
        assert doc["origin_inside"] is True
        assert np.allclose(doc["rho"], [0.0, 0.0], atol=1e-8)
        assert doc["route"] == "wolfe"

    @pytest.mark.parametrize("method", [r for r in certify.ROUTES if r != "nnls"])
    def test_every_method_headline(self, tmp_path, capsys, method):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "--input", path, "--method", method)
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["rho"], [1.0, 1.0], atol=1e-6)
        assert doc["route"] == method

    @pytest.mark.parametrize("method", list(certify.ROUTES))
    def test_single_route_matches_consensus_entry(self, tmp_path, capsys, method):
        path = write_instance(tmp_path, SQUARE)
        code, out, _ = run_cli(capsys, "--input", path, "--method", method)
        assert code == 0
        report = certify.cross_check(Polyhedron(np.array(SQUARE)))
        assert report.entries[method].status == "ok"
        assert json.loads(out)["rho"] == list(report.entries[method].result.rho)

    @pytest.mark.parametrize(
        "solvers, route",
        [
            pytest.param(["solve_wolfe"], "wolfe", id="solve_wolfe-wolfe"),
            pytest.param(["solve_dual"], "dual", id="solve_dual-dual"),
            # cross_check's maximin entry checks wolfe's kernel weights with
            # maximin_from_weights; --method maximin runs solve_maximin.
            pytest.param(
                ["maximin_from_weights", "solve_maximin"], "maximin", id="solve_maximin-maximin"
            ),
        ],
    )
    def test_answer_failing_vi_check_is_rejected(
        self, tmp_path, capsys, monkeypatch, solvers, route
    ):
        # Weights on the far vertex [2, 2] give vi_min = -4: no route may report them.
        def far_weights(real):
            def solver(*args):
                answer = real(*args)
                return dataclasses.replace(answer, alpha=np.array([0.0, 0.0, 1.0]))

            return solver

        for name in solvers:
            monkeypatch.setattr(certify, name, far_weights(getattr(certify, name)))
        entry = certify.cross_check(Polyhedron(np.array(TRIANGLE))).entries[route]
        assert entry.status == "error"
        assert route in entry.error
        path = write_instance(tmp_path, TRIANGLE)
        code, out, err = run_cli(capsys, "--input", path, "--method", route)
        assert code == 4
        assert out == ""
        assert route in err

    def test_methods_follow_route_table(self):
        assert cli.METHODS == (*certify.ROUTES, "all")

    def test_nnls_not_applicable_is_success(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "--input", path, "--method", "nnls")
        assert code == 0
        assert json.loads(out) == {"status": "not-applicable"}

    def test_nnls_applicable(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[2.0, 0.0], [0.0, 2.0]])
        code, out, _ = run_cli(capsys, "--input", path, "--method", "nnls")
        assert code == 0
        assert np.allclose(json.loads(out)["rho"], [1.0, 1.0])

    def test_point_projection_inside(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(
            capsys, "--input", path, "--method", "wolfe", "--point", "1", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["rho"], [1.0, 1.0], atol=1e-9)
        assert doc["distance"] == pytest.approx(0.0, abs=1e-8)

    def test_point_projection_outside(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(
            capsys, "--input", path, "--method", "all", "--point", "3", "3"
        )
        assert code == 0
        doc = json.loads(out)
        # nearest point of the triangle to (3, 3) is the vertex (2, 2)
        assert np.allclose(doc["rho"], [2.0, 2.0], atol=1e-6)
        assert doc["distance"] == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_text_output(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(
            capsys, "--input", path, "--method", "wolfe", "--output", "text"
        )
        assert code == 0
        assert "distance = 1.4142135623730951" in out

    def test_byte_stable_output(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        _, first, _ = run_cli(capsys, "--input", path, "--method", "all")
        _, second, _ = run_cli(capsys, "--input", path, "--method", "all")
        assert first == second

    def test_residual_past_double_range_prints_null(self, tmp_path, capsys):
        # s = 2^997: each vi_min times s^2 overflows, and JSON has no -inf.
        path = write_instance(tmp_path, [[1e300, 0.0], [0.0, 1e300], [1e300, 1e300]])
        code, out, _ = run_cli(capsys, "--input", path, "--method", "all")
        assert code == 0
        doc = json.loads(out)
        vi = [doc["certificate"]["vi_min"], doc["certificate"]["checks"][0]["residual"]]
        vi += [r["vi_min"] for r in doc["report"]["routes"].values() if r["status"] == "ok"]
        assert vi == [None] * len(vi)
        assert np.allclose(doc["rho"], [5e299, 5e299])

    def test_tolerance_flags_are_applied(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(
            capsys,
            "--input",
            path,
            "--method",
            "wolfe",
            "--tol",
            "1e-6",
            "--feas-tol",
            "1e-7",
            "--zero-tol",
            "1e-5",
            "--max-iter",
            "5000",
        )
        assert code == 0


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "--input", "/nonexistent/file.json")
        assert code == 2
        assert "error" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "--input", str(path))
        assert code == 2

    def test_ragged_rows(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text('{"vertices": [[1.0, 2.0], [3.0]]}')
        code, _, _ = run_cli(capsys, "--input", str(path))
        assert code == 2

    def test_nan_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"vertices": [[NaN, 1.0]]}')
        code, _, _ = run_cli(capsys, "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "literal", ["1e400", "1" + "0" * 400, "-1" + "0" * 400], ids=["float", "int", "neg-int"]
    )
    def test_out_of_range_number_is_input_error(self, tmp_path, capsys, literal):
        # JSON parses the integer literal as a Python int past the double range.
        path = tmp_path / "huge.json"
        path.write_text(f'{{"vertices": [[{literal}, 1.0], [2.0, 3.0]]}}')
        code, out, err = run_cli(capsys, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: vertices must have finite coordinates\n"

    def test_too_deep_nesting_is_input_error(self, tmp_path, capsys):
        # Deeper than the JSON decoder's recursion limit.
        path = tmp_path / "deep.json"
        path.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, _, _ = run_cli(capsys, "--input", path, "--method", "bogus")
        assert code == 2

    def test_point_dimension_mismatch(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, _, _ = run_cli(capsys, "--input", path, "--point", "1")
        assert code == 2

    def test_point_overflow_is_input_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-1e308, 0.0], [1.0, 1.0]])
        code, out, err = run_cli(capsys, "--input", path, "--point", "1.7e308", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --point: vertices must have finite coordinates\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "flag, field",
        [("--tol", "opt_tol"), ("--feas-tol", "feas_tol"), ("--zero-tol", "zero_tol")],
    )
    @pytest.mark.parametrize("method", ["wolfe", "all"])
    def test_non_finite_tolerance_is_usage_error(
        self, tmp_path, capsys, method, flag, field, value
    ):
        path = write_instance(tmp_path, TRIANGLE)
        argv = ["--input", path, "--method", method, f"{flag}={value}"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {field} must be finite and positive\n"

    def test_nonconvergence_exit(self, tmp_path, capsys):
        # The isosceles sliver needs two active-set steps; one is not enough.
        path = write_instance(tmp_path, [[5.0, 1.0], [-5.0, 1.0], [0.5, 2.0]])
        code, _, err = run_cli(
            capsys,
            "--input",
            path,
            "--method",
            "dual",
            "--tol",
            "1e-18",
            "--max-iter",
            "1",
        )
        assert code == 3
        assert "converge" in err

    def test_consensus_conflict_exit(self, tmp_path, capsys, monkeypatch):
        from ppocp.certify import ConsensusReport, RouteEntry

        def fake_cross_check(P, cfg):
            entry = RouteEntry(status="error", error="synthetic failure")
            return ConsensusReport(
                entries={"wolfe": entry},
                pairwise_max_deviation=1.0,
                votes={},
                verdict="conflict",
            )

        monkeypatch.setattr(cli, "cross_check", fake_cross_check)
        path = write_instance(tmp_path, TRIANGLE)
        code, _, err = run_cli(capsys, "--input", path, "--method", "all")
        assert code == 4

    def test_failing_single_route_certificate_exit(self, tmp_path, capsys, monkeypatch):
        real = cli.check_optimality

        def failing(P, rho, alpha=None, cfg=None):
            cert = real(P, rho, alpha=alpha, cfg=cfg)
            *others, witness = cert.checks
            failed = dataclasses.replace(witness, passed=False)
            return dataclasses.replace(cert, checks=(*others, failed))

        monkeypatch.setattr(cli, "check_optimality", failing)
        path = write_instance(tmp_path, TRIANGLE)
        code, out, err = run_cli(capsys, "--input", path, "--method", "dual")
        assert code == 4
        assert err == "error: consistency conflict: certificate fails hull-witness\n"
        assert json.loads(out)["certificate"]["passed"] is False

    def test_nearly_dependent_dual_answer_is_refused(self, tmp_path, capsys):
        # The third vertex lies 3.6e-13 (relative) off the line through the
        # other two.  solve_dual ends on the weights (0, 0, 1), whose point is
        # the third vertex, not the projection: a known solve_dual fault, and
        # the VI check refuses the answer.
        dual = certify.cross_check(Polyhedron(np.array(NEARLY_COLLINEAR))).entries["dual"]
        assert dual.status == "error"
        assert "optimality residual" in dual.error
        path = write_instance(tmp_path, NEARLY_COLLINEAR)
        code, out, err = run_cli(capsys, "--input", path, "--method", "dual")
        assert code == 4
        assert out == ""
        assert "consistency conflict: dual answer fails the optimality residual" in err
        code, out, _ = run_cli(capsys, "--input", path, "--method", "wolfe")
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(2.1462658991, rel=1e-9)

    def test_failing_consensus_certificate_exit(self, tmp_path, capsys, monkeypatch):
        real = cli.check_optimality

        def failing(P, rho, alpha=None, cfg=None):
            cert = real(P, rho, alpha=alpha, cfg=cfg)
            vi, ball, witness = cert.checks
            failed = dataclasses.replace(ball, passed=False)
            return dataclasses.replace(cert, checks=(vi, failed, witness))

        monkeypatch.setattr(cli, "check_optimality", failing)
        path = write_instance(tmp_path, TRIANGLE)
        code, out, err = run_cli(capsys, "--input", path, "--method", "all")
        assert code == 4
        assert err == "error: consistency conflict: certificate fails omega-ball\n"
        doc = json.loads(out)
        assert doc["report"]["verdict"] == "agree"
        assert doc["certificate"]["passed"] is False


class TestGen:
    def test_gen_is_seeded_by_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PPOCP_SEED", "7")
        code, out1, _ = run_cli(capsys, "gen", "--m", "4", "--n", "3", "--box", "2.0")
        assert code == 0
        doc = json.loads(out1)
        verts = np.array(doc["vertices"])
        assert verts.shape == (4, 3)
        assert np.all(np.abs(verts) <= 2.0)
        _, out2, _ = run_cli(capsys, "gen", "--m", "4", "--n", "3", "--box", "2.0")
        assert out1 == out2
        monkeypatch.setenv("PPOCP_SEED", "8")
        _, out3, _ = run_cli(capsys, "gen", "--m", "4", "--n", "3", "--box", "2.0")
        assert out3 != out1

    def test_gen_output_feeds_projection(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PPOCP_SEED", "3")
        code, out, _ = run_cli(capsys, "gen", "--m", "5", "--n", "2")
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "--input", str(path), "--method", "all")
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "agree"

    def test_gen_rejects_bad_sizes(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--m", "0", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "m, n",
        [("4294967296", "4294967296"), ("1000000000000", "1000000")],
        ids=["too-big", "out-of-memory"],
    )
    def test_gen_rejects_sizes_beyond_memory(self, capsys, m, n):
        # numpy refuses both before touching memory: the first size overflows
        # its byte count, the second fails to allocate 6.9 EiB.
        code, out, err = run_cli(capsys, "gen", "--m", m, "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {m} x {n} instance too large: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("box", ["nan", "inf", "1e308", "-1", "0"])
    def test_gen_rejects_box_without_finite_width(self, capsys, box):
        # rng.uniform(-box, box) raises OverflowError once 2 box overflows.
        code, out, err = run_cli(capsys, "gen", "--m", "2", "--n", "2", "--box", box)
        assert code == 2
        assert out == ""
        assert err == "error: need m >= 1, n >= 1, box > 0 and 2 box finite\n"

    def test_gen_accepts_the_widest_finite_box(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--m", "2", "--n", "2", "--box", "8e307")
        assert code == 0
        assert np.all(np.isfinite(json.loads(out)["vertices"]))


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import ppocp.cli, sys; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestMaximinCertificate:
    def test_hull_witness_catches_non_optimal_direction(self, tmp_path, capsys, monkeypatch):
        # Any point rho = c t(c) with unit c passes the VI check, since
        # min_i <z_i - rho, rho> = t^2 - t^2 = 0; the kernel's weights do not
        # combine to it unless c is the optimal direction.  The route answers
        # its weights' point, so a patched direction never reaches the answer.
        rng = np.random.default_rng(5)
        z = rng.uniform(-5.0, 5.0, size=(12, 4))
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        z += (0.5 - float(np.min(z @ d))) * d
        real = certify.solve_maximin

        def off_direction(P, cfg):
            sol = real(P, cfg)
            c = sol.c_hat + 0.05 * np.array([1.0, -1.0, 0.5, 0.0])
            c /= np.linalg.norm(c)
            t = float(np.min(P.vertices @ c))
            assert t > 0.0
            return dataclasses.replace(sol, c_hat=c, t_value=t, rho=c * t)

        P = Polyhedron(z)
        off = off_direction(P, DEFAULT_TOLERANCES)
        checks = {c.name: c for c in certify.check_optimality(P, off.rho, off.alpha).checks}
        assert checks["vi-min"].passed and checks["omega-ball"].passed
        assert not checks["hull-witness"].passed
        monkeypatch.setattr(certify, "solve_maximin", off_direction)
        path = write_instance(tmp_path, z.tolist())
        code, out, _ = run_cli(capsys, "--input", path, "--method", "maximin")
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["passed"] is True
        assert np.allclose(doc["rho"], real(P).rho, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2e-8, 5e-9])
    def test_sliver_answer_passes_hull_witness(self, tmp_path, capsys, d):
        # Near the origin t(c) drifts from ||w|| by up to opt_tol / ||w||, so
        # the point c t(c) left the hull here; the weights' point cannot.
        path = write_instance(tmp_path, [[1.0, d], [-1.0, d]])
        code, out, _ = run_cli(capsys, "--input", path, "--method", "maximin")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["certificate"]["checks"]}
        assert checks["hull-witness"]["passed"] is True

    def test_maximin_prints_passing_hull_witness(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "--input", path, "--method", "maximin")
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["passed"] is True
        assert [c["name"] for c in cert["checks"]][-1] == "hull-witness"
        assert np.allclose(np.array(cert["alpha_witness"]) @ np.array(TRIANGLE), [1.0, 1.0])

    def test_distance_identity_miss_exits_3(self, tmp_path, capsys, monkeypatch):
        from ppocp import maximin

        monkeypatch.setattr(maximin, "refine_simplex_minimizer", far_vertex_kernel)
        path = write_instance(tmp_path, TRIANGLE)
        code, out, err = run_cli(capsys, "--input", path, "--method", "maximin")
        assert code == 3
        assert out == ""
        assert "distance identity" in err


@pytest.mark.parametrize("method", ["lcp-primal", "lcp-dual"])
def test_lemke_ray_prints_passing_hull_witness(tmp_path, capsys, method):
    # The ray's weights combine the vertices to the origin, its answer.
    path = write_instance(tmp_path, SEGMENT_THROUGH_ORIGIN)
    code, out, _ = run_cli(capsys, "--input", path, "--method", method)
    assert code == 0
    doc = json.loads(out)
    assert doc["origin_inside"] is True
    assert doc["certificate"]["passed"] is True
    assert doc["certificate"]["checks"][-1]["name"] == "hull-witness"
    assert doc["certificate"]["alpha_witness"] == [0.5, 0.5]


@pytest.mark.parametrize("method", ["nnls", "all"])
@pytest.mark.parametrize(
    "vertices", [[[1e-300, 0.0]], [[3e-155]], [[1e-160, 0.0], [0.0, 1e-160]]]
)
def test_non_finite_projection_exits_4(tmp_path, capsys, monkeypatch, method, vertices):
    # At unit scale these tiny hulls solve like any other (exit 0); an nnls
    # solver answering NaN is a consistency conflict (exit 4).
    path = write_instance(tmp_path, vertices)
    code, _, _ = run_cli(capsys, "--input", path, "--method", method)
    assert code == 0

    def nan_answer(P, cfg):
        return projection_result(P, np.full(P.m, np.nan), Route.NNLS, 1, cfg)

    monkeypatch.setattr(certify, "project_via_nnls", nan_answer)
    code, _, err = run_cli(capsys, "--input", path, "--method", method)
    assert code == 4
    assert "conflict" in err
