import pytest

from conftest import cycle
from midsolve import cli, lb_trace
from midsolve.cli import (EXIT_CHECK_FAILED, EXIT_INFEASIBLE, EXIT_OK,
                          EXIT_USAGE, SCHEMA, main)
from midsolve.instances import gen_lower_bound, write_graph
from midsolve.solution import SearchStats, Solution


@pytest.fixture
def instance_file(tmp_path):
    def make(text, name="g.mids"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return make


FEASIBLE = "p mids 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
INFEASIBLE = "p mids 2 1\ne 1 2\nm 1\nm 2\n"


class TestSolve:
    def test_text_output(self, instance_file, capsys):
        rc = main(["solve", instance_file(FEASIBLE)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "size: 2" in out
        assert "witness: 1,3" in out
        assert "wall_ms:" in out

    def test_records_output(self, instance_file, capsys):
        rc = main(["solve", "--format", "records", instance_file(FEASIBLE)])
        out = capsys.readouterr().out.strip()
        assert rc == EXIT_OK
        assert out.startswith(SCHEMA + " ")
        fields = dict(f.split("=", 1) for f in out.split()[1:])
        assert fields["size"] == "2"
        assert fields["witness"] == "1,3"
        assert int(fields["nodes"]) >= 1
        assert 0 <= int(fields["pruned"]) < int(fields["nodes"])

    def test_infeasible_exit_code(self, instance_file, capsys):
        rc = main(["solve", instance_file(INFEASIBLE)])
        out = capsys.readouterr().out
        assert rc == EXIT_INFEASIBLE
        assert "size: infeasible" in out
        assert "witness: -" in out

    def test_check_flag(self, instance_file, capsys):
        rc = main(["solve", "--check", instance_file(FEASIBLE)])
        assert rc == EXIT_OK
        assert "validation: witness passes" in capsys.readouterr().out

    def test_check_failure_exit_code(self, instance_file, capsys, monkeypatch):
        # a witness that dominates nothing but itself fails the check
        monkeypatch.setattr(cli, "solve",
                            lambda g, **kw: (Solution.found(1, [1]), SearchStats()))
        rc = main(["solve", "--check", instance_file(FEASIBLE)])
        assert rc == EXIT_CHECK_FAILED
        assert "validation: FAILED" in capsys.readouterr().err

    def test_assert_flag(self, instance_file):
        assert main(["solve", "--assert", instance_file(FEASIBLE)]) == EXIT_OK

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tmp_path / "absent.mids")])
        assert exc.value.code == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", instance_file("p mids 2 5\ne 1 2\n")])
        assert exc.value.code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["solve", "oracle"])
    def test_non_utf8_file(self, tmp_path, capsys, cmd):
        path = tmp_path / "g.mids"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(path)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    def test_input_contract_violation(self, instance_file, capsys):
        # marked center of a 5-leaf star: F-degree 5 > 4
        text = "p mids 6 5\n" + "".join(f"e 1 {i}\n" for i in range(2, 7)) + "m 1\n"
        rc = main(["solve", instance_file(text)])
        captured = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_lower_bound_instance_from_writer(self, instance_file, capsys):
        path = instance_file(write_graph(gen_lower_bound(4)))
        rc = main(["solve", "--check", path])
        assert rc == EXIT_OK
        assert "size: 2" in capsys.readouterr().out


class TestOracle:
    def test_plain_graph_agreement(self, instance_file, capsys):
        rc = main(["oracle", instance_file(FEASIBLE)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "agreement: yes" in out
        assert "exhaustive:" in out and "mis-enumeration:" in out

    def test_marked_instance_runs_mis(self, instance_file, capsys):
        text = "p mids 3 2\ne 1 2\ne 2 3\nm 3\n"
        rc = main(["oracle", instance_file(text)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "mis-enumeration: Found(1, [2])" in out
        assert "agreement: yes" in out
        # the marked vertex 3 has no free neighbor
        text = "p mids 3 1\ne 1 2\nm 3\n"
        rc = main(["oracle", instance_file(text, "infeasible.mids")])
        out = capsys.readouterr().out
        assert rc == EXIT_INFEASIBLE
        assert "mis-enumeration: Infeasible" in out
        assert "agreement: yes" in out

    def test_infeasible_exit_code(self, instance_file):
        assert main(["oracle", instance_file(INFEASIBLE)]) == EXIT_INFEASIBLE

    def test_disagreement_exit_code(self, instance_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mis_enumeration_mids",
                            lambda g: Solution.found(3, [1, 2, 3]))
        rc = main(["oracle", instance_file(FEASIBLE)])
        assert rc == EXIT_CHECK_FAILED
        assert "agreement: NO" in capsys.readouterr().out

    def test_too_large_for_oracle(self, instance_file, capsys):
        n = 30
        text = f"p mids {n} 0\n"
        rc = main(["oracle", instance_file(text)])
        assert rc == EXIT_USAGE
        assert "exceed" in capsys.readouterr().err


class TestAnalyze:
    def test_default_weights(self, capsys):
        rc = main(["analyze"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("factor=") == 24
        assert "max factor: 1.3568" in out
        assert "worst cases:" in out

    def test_custom_weights(self, capsys):
        rc = main(["analyze", "--weights", "1.0,1.0"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "weights: w1=1.0 w2=1.0" in out

    def test_inadmissible_weights_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--weights", "0.4,0.9"])
        assert exc.value.code == EXIT_USAGE

    def test_malformed_weights_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--weights", "nope"])
        assert exc.value.code == EXIT_USAGE

    def test_optimize(self, capsys):
        rc = main(["analyze", "--optimize"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "optimized: w1=" in out

    def test_optimize_prints_frozen_weights(self, capsys):
        assert main(["analyze", "--optimize"]) == EXIT_OK
        assert "optimized: w1=0.841033 w2=0.968467" in capsys.readouterr().out


class TestLbTrace:
    def test_trace_range(self, capsys):
        rc = main(["lbtrace", "3", "6"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.startswith(SCHEMA)]
        assert len(lines) == 4
        assert all("case9_only=True" in ln for ln in lines)
        assert "leaf growth:" in out

    def test_failed_claim_exits_1(self, monkeypatch, capsys):
        # on a cycle the suffix shapes and the removals fail at l = 3 and 4
        monkeypatch.setattr(lb_trace, "gen_lower_bound", lambda l: cycle(2 * l, 1))
        assert main(["lbtrace", "3", "4"]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert out.count("shapes_ok=False removals_ok=False") == 2
        assert "leaf growth:" in out

    def test_bad_range(self, capsys):
        assert main(["lbtrace", "6", "3"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_records(self, capsys):
        rc = main(["bench", "--n", "12", "--count", "3", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        seeds = []
        for ln in lines:
            assert ln.startswith(SCHEMA + " ")
            fields = dict(f.split("=", 1) for f in ln.split()[1:])
            seeds.append(int(fields["seed"]))
            assert "wall_ms" in fields
        assert seeds == [5, 6, 7]

    def test_text_format(self, capsys):
        rc = main(["bench", "--n", "10", "--count", "2", "--format", "text"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert not out.startswith(SCHEMA)
        assert out.count("seed=") == 2

    def test_mark_fraction(self, capsys):
        rc = main(["bench", "--n", "14", "--count", "2", "--mark-fraction",
                   "0.2", "--seed", "3"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("flag, value", [("--p", "2"),
                                             ("--mark-fraction", "1.5"),
                                             ("--p", "nan")])
    def test_probability_out_of_range(self, capsys, flag, value):
        self.assert_usage_error(capsys, flag, value)

    @pytest.mark.parametrize("flag, value", [("--n", "-1"), ("--count", "-2"),
                                             ("--jobs", "0"), ("--jobs", "-3"),
                                             ("--count", "two")])
    def test_integer_out_of_range(self, capsys, flag, value):
        self.assert_usage_error(capsys, flag, value)

    @staticmethod
    def assert_usage_error(capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, value])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("mids bench: error: argument " + flag)

    def test_parallel_matches_serial(self, capsys):
        main(["bench", "--n", "12", "--count", "4", "--seed", "9"])
        serial = capsys.readouterr().out
        main(["bench", "--n", "12", "--count", "4", "--seed", "9",
              "--jobs", "2"])
        parallel = capsys.readouterr().out

        def strip_wall(text):
            return [ln.rsplit(" wall_ms=", 1)[0] for ln in text.splitlines()]

        assert strip_wall(serial) == strip_wall(parallel)


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
