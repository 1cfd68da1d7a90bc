"""Command-line surface tests: every subcommand through main(argv),
exit codes, file outputs, and byte-level determinism."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irrstrength import RetryExhausted, cli, graphs
from irrstrength.cli import main
from irrstrength.graphs import generate_random_regular, read_edge_list, read_graph6, write_graph6
from irrstrength.lab import binomial_tail_estimate, chernoff_bounds, condition_failure_rates
from irrstrength.labeling import compute_budgets
from irrstrength.partition import PipelineParams
from irrstrength.pipeline import strict_degree_window
from irrstrength.verify import regular_lower_bound

EPS_TWELFTH = repr(1.0 / 12.0)


def write_p3(tmp_path: Path) -> Path:
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n", encoding="ascii")
    return path


def write_weights(tmp_path: Path, name: str, rows: list[tuple[int, int, int]]) -> Path:
    path = tmp_path / name
    lines = ["u,v,weight"] + [f"{u},{v},{w}" for u, v, w in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


class TestGen:
    def test_edge_list_output(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main(["gen", "--n", "10", "--d", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote {out}: n=10 edges=15\n"
        g = read_edge_list(out)
        expected = generate_random_regular(10, 3, 1)
        assert g.n == 10
        assert (g.edges == expected.edges).all()

    def test_graph6_output(self, tmp_path, capsys):
        out = tmp_path / "g.g6"
        rc = main(["gen", "--n", "12", "--d", "3", "--seed", "4",
                   "--format", "graph6", "--out", str(out)])
        assert rc == 0
        assert "edges=18" in capsys.readouterr().out
        line = out.read_text(encoding="ascii").strip()
        expected = generate_random_regular(12, 3, 4)
        assert line == write_graph6(expected)
        assert (read_graph6(line).edges == expected.edges).all()

    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        """IRRSTRENGTH_SEED fills in a missing --seed but never beats one."""
        monkeypatch.setenv("IRRSTRENGTH_SEED", "5")
        a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        assert main(["gen", "--n", "10", "--d", "3", "--out", str(a)]) == 0
        assert main(["gen", "--n", "10", "--d", "3", "--seed", "5", "--out", str(b)]) == 0
        assert main(["gen", "--n", "10", "--d", "3", "--seed", "6", "--out", str(c)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_bad_env_seed_is_a_parameter_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IRRSTRENGTH_SEED", "not-a-number")
        rc = main(["gen", "--n", "10", "--d", "3", "--out", str(tmp_path / "g.txt")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: IRRSTRENGTH_SEED must be an integer")

    def test_dev_null_output_exits_0(self, capsys):
        # /dev/null looks seekable but cannot be cut
        assert main(["gen", "--n", "10", "--d", "3", "--seed", "1", "--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, out_flag, rc", [
        (["gen", "--n", "10", "--d", "3", "--seed", "1"], "--out", 0),
        (["weight", "--n", "100", "--d", "10", "--preset", "headline", "--mode", "empirical",
          "--retries", "2", "--seed", "0"], "--out-report", 2),
    ])
    def test_pipe_output_equals_a_file(self, tmp_path, capsys, argv, out_flag, rc):
        # a pipe cannot be cut; both outputs fit in its buffer
        assert main(argv + [out_flag, str(tmp_path / "out")]) == rc
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as pipe:
            try:
                assert main(argv + [out_flag, f"/dev/fd/{write_end}"]) == rc
            finally:
                os.close(write_end)
            assert pipe.read() == (tmp_path / "out").read_bytes()
        assert capsys.readouterr().err == ""

    def test_odd_degree_sum_exits_3(self, tmp_path, capsys):
        rc = main(["gen", "--n", "5", "--d", "3", "--seed", "0",
                   "--out", str(tmp_path / "g.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "g.txt"
        rc = main(["gen", "--n", "10", "--d", "3", "--seed", "0", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name", ["_pairing_attempt", "_first_shuffle"])
    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 116. GiB for an array"),
             "error: out of memory: Unable to allocate 116. GiB for an array\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
    )
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, name, exc, message):
        # gen --n 1000000 asks for a 116 GiB pairing table; the failed
        # allocation is simulated, in the attempt and in its first shuffle
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(graphs, name, no_memory)
        out = tmp_path / "g.txt"
        rc = main(["gen", "--n", "10", "--d", "3", "--seed", "1", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_retry_exhaustion_exits_2(self, tmp_path, capsys, monkeypatch):
        # a RetryExhausted that escapes the subcommand meets main's exit-2 handler
        message = "no simple 4-regular graph on 6 vertices in 200 pairing attempts"

        def exhausted(*args, **kwargs):
            raise RetryExhausted(message)

        monkeypatch.setattr(cli, "generate_random_regular", exhausted)
        out = tmp_path / "g.txt"
        rc = main(["gen", "--n", "6", "--d", "4", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestWeight:
    def test_requires_b_eps_or_preset(self, capsys):
        rc = main(["weight", "--n", "100", "--d", "10"])
        assert rc == 3
        assert "provide --b and --eps, or pick a --preset" in capsys.readouterr().err

    def test_requires_graph_or_dimensions(self, capsys):
        rc = main(["weight", "--preset", "headline"])
        assert rc == 3
        assert "provide --graph or both --n and --d" in capsys.readouterr().err

    def test_strict_mode_refuses_degree_outside_window(self, capsys):
        # ln^8(100) is far above 100, so no degree qualifies at n=100 and
        # the default strict mode must refuse before sampling anything
        rc = main(["weight", "--n", "100", "--d", "10", "--preset", "headline",
                   "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "success=false" in out
        assert "failure.stage=entry" in out
        assert "failure.kind=parameter" in out
        assert "degree window" in out
        assert "strict" in out

    def test_membership_probability_of_one_is_refused(self, capsys):
        # (ln 3000)^(2e-20) rounds to 1.0, so every vertex would land in U
        rc = main(["weight", "--n", "3000", "--d", "150", "--b", "1e-20", "--eps", "1e-20",
                   "--mode", "empirical"])
        out = capsys.readouterr().out
        assert rc == 3
        assert (
            "failure.stage=entry\nfailure.kind=parameter\nfailure.message=membership probability "
            "1.0 outside (0,1) for n=3000, b=1e-20, eps=1e-20\n"
        ) in out

    def test_stage_failure_exits_2_and_writes_report_but_no_weights(self, tmp_path, capsys):
        """At n=100, d=10 the per-class degree window contains no integer,
        so the partition stage exhausts its retries."""
        report = tmp_path / "report.txt"
        weights = tmp_path / "weights.csv"
        rc = main(["weight", "--n", "100", "--d", "10", "--preset", "headline",
                   "--mode", "empirical", "--retries", "2", "--seed", "0",
                   "--out-report", str(report), "--out-weights", str(weights)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "failure.stage=partition" in out
        assert "failure.kind=partition_conditions" in out
        assert report.read_text(encoding="utf-8") == out
        assert not weights.exists()

    def test_failure_witness_prints_plain_floats(self, capsys):
        # a numpy scalar's repr is np.float64(...) under numpy 2 and the
        # plain number under numpy 1, so stdout must not hold one
        rc = main(["weight", "--n", "100", "--d", "10", "--b", "1", "--eps", "0.0833",
                   "--mode", "empirical", "--retries", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "np." not in out
        assert (
            "witness[v=47 i=2 |3 - 0.27315421731598677| = 2.726845782684013 > 0.04049646636203641]\n"
        ) in out

    def test_graph_file_input(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        assert main(["gen", "--n", "100", "--d", "10", "--seed", "7",
                     "--out", str(graph_path)]) == 0
        capsys.readouterr()
        rc = main(["weight", "--graph", str(graph_path), "--preset", "headline",
                   "--mode", "empirical", "--retries", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "n=100" in out
        assert "d=10" in out
        assert "failure.kind=partition_conditions" in out

    def test_deep_failure_report_is_byte_stable(self, tmp_path, capsys):
        # huge slack pushes this configuration through partition and x,
        # down to the tuning feasibility check
        argv = ["weight", "--n", "2000", "--d", "40", "--preset", "headline",
                "--mode", "empirical", "--slack", "1e6", "--seed", "1"]
        rc1 = main(argv + ["--out-report", str(tmp_path / "r1.txt")])
        first = capsys.readouterr().out
        rc2 = main(argv + ["--out-report", str(tmp_path / "r2.txt")])
        second = capsys.readouterr().out
        assert rc1 == rc2 == 2
        assert "failure.kind=delta_infeasible" in first
        assert "partition.attempts=1" in first
        assert first == second
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()

    def test_empty_v0_draw_is_no_parameter_error(self, capsys):
        # seed 0 puts all four vertices in U: (3°)-(6°) hold vacuously and
        # tuning has no targets, so the run goes on past the x stage
        rc = main(["weight", "--n", "4", "--d", "1", "--b", "0.01", "--eps", "0.85",
                   "--mode", "empirical", "--slack", "1e6", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc in (0, 2)
        assert "failure.stage=stage" not in out
        assert "x.attempts=1\n" in out
        assert "tuning.separation_ok=true\n" in out

    def test_timings_go_to_stderr_only(self, capsys):
        argv = ["weight", "--n", "2000", "--d", "40", "--preset", "headline",
                "--mode", "empirical", "--slack", "1e6", "--seed", "1"]
        main(argv)
        quiet = capsys.readouterr()
        assert quiet.err == ""
        main(argv + ["--timings"])
        timed = capsys.readouterr()
        assert timed.out == quiet.out
        assert "timing stage=partition" in timed.err
        assert "timing stage=x" in timed.err
        assert "timing" not in timed.out


class TestVerify:
    def test_irregular_weighting_exits_0(self, tmp_path, capsys):
        graph = write_p3(tmp_path)
        weights = write_weights(tmp_path, "w.csv", [(0, 1, 1), (1, 2, 2)])
        rc = main(["verify", "--graph", str(graph), "--weights", str(weights)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("irregular=True\nwitness=\n")
        assert "distinct_sigmas=3" in out

    def test_collision_exits_1_with_witness(self, tmp_path, capsys):
        graph = write_p3(tmp_path)
        weights = write_weights(tmp_path, "w.csv", [(0, 1, 1), (1, 2, 1)])
        rc = main(["verify", "--graph", str(graph), "--weights", str(weights)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("irregular=False\nwitness=0,2\n")

    def test_graph6_input(self, tmp_path, capsys):
        g6 = tmp_path / "c5.g6"
        g6.write_text("Dhc\n", encoding="ascii")
        weights = write_weights(
            tmp_path, "w.csv",
            [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 3), (0, 4, 3)],
        )
        rc = main(["verify", "--graph", str(g6), "--weights", str(weights)])
        assert rc == 0
        assert "irregular=True" in capsys.readouterr().out

    def test_malformed_weights_exit_3(self, tmp_path, capsys):
        graph = write_p3(tmp_path)
        bad = tmp_path / "w.csv"
        bad.write_text("u,v,weight\n0,1,one\n", encoding="ascii")
        rc = main(["verify", "--graph", str(graph), "--weights", str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_label_beyond_int64_exits_3_without_traceback(self, tmp_path):
        graph = write_p3(tmp_path)
        weights = write_weights(tmp_path, "w.csv", [(0, 1, 99999999999999999999), (1, 2, 1)])
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "irrstrength", "verify", "--graph", str(graph), "--weights", str(weights)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("error: line 2: weight 99999999999999999999 outside")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "graph_text, weights_text, message",
        [
            ("0 1\n1 2\n", "u,v,weight\n0,1,1\n0,9223372036854775808,2\n",
             "line 3: edge (0,9223372036854775808) not in graph"),
            ("0 1\n0 9223372036854775808\n", "u,v,weight\n0,1,1\n",
             "vertex count 9223372036854775809 exceeds the 32-bit id range"),
            ("# 3 2\n0 1\n0 9223372036854775808\n", "u,v,weight\n0,1,1\n",
             "vertex id 9223372036854775808 exceeds declared count 3"),
        ],
        ids=["csv", "edge-list", "edge-list-header"],
    )
    def test_vertex_id_beyond_int64_exits_3(self, tmp_path, capsys, graph_text, weights_text, message):
        graph, weights = tmp_path / "g.txt", tmp_path / "w.csv"
        graph.write_text(graph_text, encoding="ascii")
        weights.write_text(weights_text, encoding="ascii")
        rc = main(["verify", "--graph", str(graph), "--weights", str(weights)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "graph_name, graph_bytes, weights_bytes, message",
        [
            ("g.txt", b"0 1\r\n1 2\xc3\xa9\n", b"u,v,weight\n0,1,1\n1,2,2\n", "line 2: non-ASCII byte"),
            ("g.txt", b"0 1\n1 2\n", b"u,v,weight\n0,1,1\n1,2,\xc3\xa9\n", "line 3: non-ASCII byte"),
            ("g.g6", b"\nBw\xe9\n", b"u,v,weight\n0,1,1\n1,2,2\n", "g.g6: line 2: non-ASCII byte"),
        ],
        ids=["edge-list", "csv", "graph6"],
    )
    def test_non_ascii_byte_exits_3_naming_its_line(
        self, tmp_path, capsys, graph_name, graph_bytes, weights_bytes, message
    ):
        graph, weights = tmp_path / graph_name, tmp_path / "w.csv"
        graph.write_bytes(graph_bytes)
        weights.write_bytes(weights_bytes)
        rc = main(["verify", "--graph", str(graph), "--weights", str(weights)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n")


class TestExact:
    def test_path_strength_with_witness_block(self, tmp_path, capsys):
        rc = main(["exact", "--graph", str(write_p3(tmp_path))])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("strength=2\n")
        assert out.endswith("u,v,weight\n0,1,1\n1,2,2\n")

    def test_c7_stdout_pinned(self, tmp_path, capsys):
        # the node count is part of stdout, so the search order is too
        c7 = tmp_path / "c7.txt"
        c7.write_text("".join(f"{i} {(i + 1) % 7}\n" for i in range(7)), encoding="ascii")
        rc = main(["exact", "--graph", str(c7)])
        assert rc == 0
        assert capsys.readouterr().out == (
            "strength=5\nnodes=23\nu,v,weight\n"
            "0,1,1\n0,6,1\n1,2,2\n2,3,2\n3,4,3\n4,5,4\n5,6,5\n"
        )

    def test_witness_block_passes_verify(self, tmp_path, capsys):
        # the lines from u,v,weight on are a weight CSV; the strength and
        # nodes lines above them are not
        p3 = write_p3(tmp_path)
        assert main(["exact", "--graph", str(p3)]) == 0
        out = capsys.readouterr().out
        weights = tmp_path / "w.csv"
        weights.write_text(out[out.index("u,v,weight\n") :], encoding="ascii")
        assert main(["verify", "--graph", str(p3), "--weights", str(weights)]) == 0
        assert capsys.readouterr().out.startswith("irregular=True\n")

    def test_kmax_exceeded_has_no_witness_block(self, tmp_path, capsys):
        c5 = tmp_path / "c5.g6"
        c5.write_text("Dhc\n", encoding="ascii")
        rc = main(["exact", "--graph", str(c5), "--kmax", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("strength=>2\n")
        assert "u,v,weight" not in out

    def test_kmax_below_one_exits_3(self, tmp_path, capsys):
        rc = main(["exact", "--graph", str(write_p3(tmp_path)), "--kmax", "-3"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "k_max must be >= 1, got -3" in captured.err

    def test_empty_graph6_file_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.g6"
        empty.write_text("\n", encoding="ascii")
        rc = main(["exact", "--graph", str(empty)])
        assert rc == 3
        assert "no graph6 line found" in capsys.readouterr().err


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--n", "100", "--d", "10", "--b", "nan", "--eps", "0.1"],
            ["bounds", "--n", "100", "--d", "10", "--b", "inf", "--eps", "0.1"],
            ["weight", "--n", "200", "--d", "10", "--b", "1", "--eps", "nan", "--mode", "empirical"],
            ["lab", "conditions", "--n", "60", "--d", "4", "--b", "1", "--eps", "0.1", "--slack", "nan",
             "--trials", "2"],
        ],
    )
    def test_exits_3_without_output(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite and positive" in captured.err


class TestOversizedParameters:
    """Finite inputs too large for a float power or a numpy array exit 3,
    not with a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--n", "5000", "--d", "1242", "--b", "400", "--eps", "0.05"],
            ["lab", "conditions", "--n", "50", "--d", "4", "--b", "400", "--eps", "0.05",
             "--trials", "2"],
        ],
        ids=["bounds", "lab-conditions"],
    )
    def test_log_power_overflow_exits_3(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflows a float" in captured.err

    def test_weight_reports_log_power_overflow_as_parameter(self, capsys):
        rc = main(["weight", "--n", "50", "--d", "4", "--b", "400", "--eps", "0.05",
                   "--mode", "empirical", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "failure.stage=entry\nfailure.kind=parameter\n" in out
        assert "overflows a float" in out

    def test_weight_refuses_entry_parameters_before_pairing(self, capsys, monkeypatch):
        def no_pairing(*args, **kwargs):
            raise AssertionError("pairing started")

        monkeypatch.setattr(graphs, "_first_pairing", no_pairing)
        rc = main(["weight", "--n", "5000", "--d", "1242", "--b", "400", "--eps", "0.05",
                   "--mode", "empirical", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 3
        assert out.startswith("n=5000\nd=1242\n")
        assert "failure.stage=entry\nfailure.kind=parameter\n" in out
        assert "overflows a float" in out

    @pytest.mark.parametrize(
        "n, d, message",
        [
            ("7", "3", "n*d must be even, got n=7, d=3"),
            ("50", "50", "degree must satisfy 0 <= d < n, got d=50, n=50"),
        ],
        ids=["odd-stub-count", "degree-not-below-n"],
    )
    def test_weight_keeps_the_generator_refusal(self, n, d, message, capsys, monkeypatch):
        # the entry checks would refuse these too, with another message
        monkeypatch.setattr(graphs, "_first_pairing", None)
        rc = main(["weight", "--n", n, "--d", d, "--b", "400", "--eps", "0.05",
                   "--mode", "empirical", "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["10000000000000000000", "3000000000"])
    def test_gen_beyond_32_bit_ids_exits_3_before_pairing(self, n, tmp_path, capsys, monkeypatch):
        def no_pairing(*args, **kwargs):
            raise AssertionError("pairing started")

        monkeypatch.setattr(graphs, "_first_pairing", no_pairing)
        out = tmp_path / "g.txt"
        rc = main(["gen", "--n", n, "--d", "2", "--seed", "1", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: vertex count {n} exceeds the 32-bit id range\n"
        assert not out.exists()

    def test_chernoff_row_too_long_for_numpy_exits_3(self, capsys):
        rc = main(["lab", "chernoff", "--n", "100000000000000000000", "--p", "0.5", "--t", "1",
                   "--trials", "1", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: n=100000000000000000000 is too large")


class TestBounds:
    def test_matches_library_values(self, capsys):
        n, d, b, eps = 5000, 50, 1.0, 1.0 / 12.0
        rc = main(["bounds", "--n", "5000", "--d", "50", "--b", "1.0",
                   "--eps", EPS_TWELFTH])
        out = capsys.readouterr().out
        assert rc == 0
        budgets = compute_budgets(n, d, b, eps)
        lo, hi = strict_degree_window(n, b, eps)
        cap = (n / d) * (1.0 + 8.0 / math.log(n) ** b)
        expected = [
            f"n={n}",
            f"d={d}",
            f"b={b!r}",
            f"eps={eps!r}",
            f"lower_bound={regular_lower_bound(n, d)}",
            f"guarantee_cap={cap!r}",
            f"budgets.base={budgets.base}",
            f"budgets.class_step={budgets.class_step}",
            f"budgets.fine_cap={budgets.fine_cap}",
            f"budgets.coarse_step={budgets.coarse_step}",
            f"budgets.target_base={budgets.target_base}",
            f"budgets.delta_span={budgets.delta_span}",
            f"budgets.label_cap={budgets.label_cap()}",
            f"window.low={lo!r}",
            f"window.high={hi!r}",
            f"window.contains_d={str(lo <= d <= hi).lower()}",
        ]
        assert out == "\n".join(expected) + "\n"

    def test_single_vertex_exits_3_without_traceback(self, capsys):
        rc = main(["bounds", "--n", "1", "--d", "1", "--b", "0.2", "--eps", "0.05"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "need n >= 3" in captured.err


class TestLab:
    def test_chernoff_nan_deviation_exits_3(self, capsys):
        rc = main(["lab", "chernoff", "--n", "200", "--p", "0.5", "--t", "nan",
                   "--trials", "10", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "t=nan" in captured.err

    def test_chernoff_row_matches_library(self, tmp_path, capsys):
        out_path = tmp_path / "tails.csv"
        argv = ["lab", "chernoff", "--n", "200", "--p", "0.5", "--t", "30",
                "--trials", "4000", "--seed", "9", "--out", str(out_path)]
        rc = main(argv)
        text = capsys.readouterr().out
        assert rc == 0
        assert out_path.read_text(encoding="utf-8") == text
        header, row, tail = text.split("\n")
        assert header == "n,p,t,upper,lower,p_above,p_below,se_above,se_below,trials"
        assert tail == ""
        upper, lower = chernoff_bounds(200, 0.5, 30.0)
        est = binomial_tail_estimate(200, 0.5, 30.0, 4000, 9)
        assert row == (
            f"200,0.5,30.0,{upper!r},{lower!r},{est.p_above!r},"
            f"{est.p_below!r},{est.se_above!r},{est.se_below!r},4000"
        )
        main(argv)
        assert capsys.readouterr().out == text

    def test_conditions_csv_matches_library(self, tmp_path, capsys):
        out_path = tmp_path / "rates.csv"
        rc = main(["lab", "conditions", "--n", "60", "--d", "4", "--b", "1.0",
                   "--eps", EPS_TWELFTH, "--trials", "2", "--seed", "3",
                   "--out", str(out_path)])
        text = capsys.readouterr().out
        assert rc == 0
        params = PipelineParams(b=1.0, eps=1.0 / 12.0, slack=1.0, mode="empirical")
        table = condition_failure_rates(60, 4, params, trials=2, seed=3)
        assert text == table.to_csv()
        assert out_path.read_text(encoding="utf-8") == text

    def test_conditions_with_an_empty_v0_trial_exit_0(self, capsys):
        # some of seed 0's partitions of G(12, 3) put every vertex in U;
        # (3°)-(6°) quantify over V0, so those trials meet them
        rc = main(["lab", "conditions", "--n", "12", "--d", "3", "--b", "0.2",
                   "--eps", "0.05", "--trials", "20", "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 7

    def test_conditions_zero_trials_exit_3(self, capsys):
        rc = main(["lab", "conditions", "--n", "60", "--d", "4", "--b", "1.0",
                   "--eps", EPS_TWELFTH, "--trials", "0", "--seed", "3"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bounds", "--n", "1", "--d", "1", "--b", "1", "--eps", "1"], 3),
        (["verify", "--graph", "{graph}", "--weights", "{weights}"], 1),
    ],
    ids=["bounds-exit-3", "verify-exit-1"],
)
def test_module_entry_point_exits_with_main_code(tmp_path, argv, code):
    # python -m irrstrength.cli used to drop main()'s return value and exit 0
    graph = write_p3(tmp_path)
    weights = write_weights(tmp_path, "w.csv", [(0, 1, 1), (1, 2, 1)])
    argv = [arg.format(graph=graph, weights=weights) for arg in argv]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "irrstrength.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == code
    assert "Traceback" not in done.stderr


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    assert "usage" in capsys.readouterr().err
