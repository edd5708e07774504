"""End-to-end checks of the command line, driven through ``main(argv)``.

Exit codes are part of the contract: 0 holds / suite passed, 1 does not
hold, 2 usage or parse error, 3 budget exhausted, 4 internal error.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lbisim.cli
from lbisim.cli import main
from lbisim.corpus import (DEFAULT_CHECKS, CheckOutcome, enumerate_terms,
                           run_suite, term_pairs)
from lbisim.syntax import MAX_DEPTH, print_term
from lbisim.terms import Calculus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_equivalent_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "--calculus", "accs", "--rel",
                       "l-bisim", "--labels", "LA", "a.'a + tau.0", "tau.0")
    assert code == 0
    assert out.splitlines()[0] == "equivalent"


def test_check_inequivalent_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--calculus", "accs", "--rel", "ipo",
                       "a.'a + tau.0", "tau.0")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "inequivalent"
    assert any("- | 'a" in ln for ln in lines)


def test_check_text_witness_shows_barbs_and_answers(capsys):
    code, out, _ = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "barbed-semi-sat", "0", "a.0")
    assert code == 1
    assert out.splitlines() == [
        "inequivalent", "witness:",
        "  1. at (0  ,  a.0): the right side shows barb a and the other "
        "does not",
        "explored 1 pairs in 1 rounds"]
    code, out, _ = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "semi-sat", "a.a.0", "a.b.0")
    assert code == 1
    assert out.splitlines() == [
        "inequivalent", "witness:",
        "  1. at (a.a.0  ,  a.b.0): left moves - | 'a.@X1  ->  a.0",
        "     defender answers  ->  b.0",
        "  2. at (a.0  ,  b.0): left moves - | 'a.@X1  ->  0",
        "     defender: no answer",
        "explored 2 pairs in 2 rounds"]


def test_check_json_payload(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "--calculus",
                       "ccs", "--rel", "l-bisim", "--labels", "LCCS",
                       "a.0 + b.0", "a.0")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "inequivalent"
    assert payload["relation"] == "l-bisim"
    assert payload["labels"] == "LCCS"
    assert payload["witness"] and payload["stats"]["pairs"] >= 1


def test_parse_error_exits_two(capsys):
    code, out, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                         "strong", "a..0", "0")
    assert code == 2
    assert "parse error" in err


def test_parse_error_json_goes_to_stdout(capsys):
    code, out, err = run(capsys, "barbs", "--calculus", "ccs", "--format",
                         "json", "a.(")
    assert code == 2
    assert "error" in json.loads(out)


def test_unknown_label_set_exits_two(capsys):
    code, _, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "l-bisim", "--labels", "NOPE", "a.0", "a.0")
    assert code == 2
    assert "unknown label set" in err


def test_l_bisim_requires_labels(capsys):
    code, _, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "l-bisim", "a.0", "a.0")
    assert code == 2
    assert "--labels" in err


def test_mode_rejected_for_ordinary_relations(capsys):
    code, _, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "strong", "--mode", "instantiate:@nowhere",
                       "a.0", "a.0")
    assert code == 2


def test_labels_rejected_for_other_relations(capsys):
    for rel in ("ipo", "semi-sat", "barbed-semi-sat", "strong"):
        code, out, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                             rel, "--labels", "LCCS", "a.0", "a.0")
        assert code == 2, rel
        assert "--labels" in err and not out, rel


def test_budget_flag_exits_three(capsys):
    code, _, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "strong", "--max-pairs", "1", "a.0 + a.0", "a.0")
    assert code == 3
    assert "budget" in err


def test_budget_exit_says_what_grew(capsys):
    # the game on two capability chains that differ only at their ends
    # grows past 50 pairs before it refutes them
    code, out, err = run(capsys, "check", "--format", "json", "--calculus",
                         "ma", "--rel", "semi-sat", "--max-pairs", "50",
                         "in a." * 25 + "0", "in a." * 24 + "in b.0")
    assert code == 3, err
    error = json.loads(out)["error"]
    assert "exceeded the budget of 50 (reached 51)" in error
    assert re.search(r"with [1-9]\d* pairs not yet expanded and a largest "
                     r"state of [1-9]\d* characters", error)


def test_budget_exit_counts_open_pairs_only(capsys):
    # the budget of 2 stores the root, expanded, and the equal-state
    # pair (0, 0), settled unplayed: no pair is left to expand
    code, out, err = run(capsys, "check", "--format", "json", "--calculus",
                         "ccs", "--rel", "strong", "--max-pairs", "2",
                         "a.0 + a.b.0", "a.0")
    assert code == 3, err
    error = json.loads(out)["error"]
    assert ("exceeded the budget of 2 (reached 3), with 0 pairs not yet "
            "expanded and a largest state of 11 characters") in error


def test_budget_flag_only_for_check(capsys):
    """Only `check` plays a game; the other verbs take no budget."""
    for argv in (["reduce", "--calculus", "ccs", "a.0 | 'a.0"],
                 ["barbs", "--calculus", "ccs", "a.0"],
                 ["lts", "--calculus", "ccs", "a.0"],
                 ["pred", "--calculus", "ccs", "--kind", "tau", "tau.0",
                  "0"]):
        assert run(capsys, *argv)[0] == 0, argv
        code, out, _ = run(capsys, *argv[:1], "--max-pairs", "1", *argv[1:])
        assert code == 2 and not out, argv


def test_check_json_reports_residuals(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "--calculus",
                       "ma", "--rel", "ipo", "--max-pairs", "100",
                       "m[(nu k) k[0]]", "m[0]")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["residuals"] == 1 and stats["pairs"] == 1


def test_python_dash_m_runs_the_command_line():
    src = str(Path(lbisim.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "lbisim", "reduce", "--calculus", "ccs",
         "a.0 | 'a.0"], env=env, capture_output=True, text=True,
        check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1 reduction(s) from a.0 | 'a.0"
    proc = subprocess.run(
        [sys.executable, "-m", "lbisim", "reduce", "--calculus", "ccs",
         "--max-pairs", "1", "a.0 | 'a.0"], env=env, capture_output=True,
        text=True, check=False)
    assert proc.returncode == 2


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LBISIM_MAX_PAIRS", "1")
    code, _, _ = run(capsys, "check", "--calculus", "ccs", "--rel",
                     "strong", "a.0 + a.0", "a.0")
    assert code == 3


def test_budget_flag_must_be_positive(capsys):
    for budget in ("0", "-1", "abc", "1.5"):
        code, out, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                             "strong", "--max-pairs", budget, "a.0", "a.0")
        assert code == 2, budget
        assert "positive integer" in err and "budget" not in err
        assert "equivalent" not in out
        code, _, err = run(capsys, "corpus", "--max-pairs", budget,
                           '{"calculus": "ccs", "checks": ["lts"]}')
        assert code == 2 and "positive integer" in err, budget
        code, out, err = run(capsys, "lts", "--calculus", "ccs",
                             "--max-states", budget, "a.0")
        assert code == 2 and "positive integer" in err, budget
        assert "budget" not in err and not out, budget


def test_budget_env_var_must_be_positive(capsys, monkeypatch):
    for budget in ("abc", "0", "-3"):
        monkeypatch.setenv("LBISIM_MAX_PAIRS", budget)
        code, out, err = run(capsys, "check", "--format", "json",
                             "--calculus", "ccs", "--rel", "strong",
                             "a.0", "a.0")
        assert code == 2, budget
        assert "LBISIM_MAX_PAIRS" in json.loads(out)["error"]
        # an explicit flag does not read the variable
        code, _, _ = run(capsys, "check", "--calculus", "ccs", "--rel",
                         "strong", "--max-pairs", "5", "a.0", "a.0")
        assert code == 0


def test_corpus_spec_budget_must_be_positive(capsys):
    for budget in (0, -1, "4000", 2.5, True, None):
        spec = json.dumps({"calculus": "ccs", "count": 10,
                           "checks": ["endpoints"], "max_pairs": budget})
        code, _, err = run(capsys, "corpus", spec)
        assert code == 2, budget
        assert "max_pairs must be a positive integer" in err


def test_internal_error_exits_four_without_verdict(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(lbisim.cli, "check", crash)
    argv = ("check", "--calculus", "ccs", "--rel", "strong", "a.0", "b.0")
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "internal error" in err and "RecursionError" in err
    code, out, _ = run(capsys, "check", "--format", "json", *argv[1:])
    assert code == 4
    payload = json.loads(out)
    assert "verdict" not in payload and "internal error" in payload["error"]


def test_at_file_terms(capsys, tmp_path):
    f = tmp_path / "term.txt"
    f.write_text("a.0 | b.0\n")
    code, out, _ = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "strong", f"@{f}", "b.0 | a.0")
    assert code == 0
    assert out.splitlines()[0] == "equivalent"


def test_pattern_label_file(capsys, tmp_path):
    f = tmp_path / "la.labels"
    f.write_text("# asynchronous observations over the name a\n"
                 "-\n"
                 "- | a.@X1\n")
    code, out, _ = run(capsys, "check", "--calculus", "accs", "--rel",
                       "l-bisim", "--labels", f"@{f}",
                       "a.'a + tau.0", "tau.0")
    assert code == 0
    assert out.splitlines()[0] == "equivalent"


def test_instantiate_mode(capsys, tmp_path):
    f = tmp_path / "pool.txt"
    f.write_text("0\n'c\n")
    code, out, _ = run(capsys, "check", "--calculus", "accs", "--rel",
                       "semi-sat", "--mode", f"instantiate:@{f}",
                       "'a", "0")
    assert code == 1
    assert out.splitlines()[0] == "inequivalent"


def test_empty_pool_exits_two(capsys, tmp_path):
    # a pool without terms leaves a.0 no move, which made it equivalent
    # to 0; it is refused, and no verdict is printed
    code, out, _ = run(capsys, "check", "--calculus", "ccs", "--rel", "ipo",
                       "a.0", "0")
    assert (code, out.splitlines()[0]) == (1, "inequivalent")
    for text in ("", "# no terms here\n\n"):
        f = tmp_path / "pool.txt"
        f.write_text(text)
        code, out, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                             "ipo", "--mode", f"instantiate:@{f}", "a.0", "0")
        assert code == 2 and not out, text
        assert "pool is empty" in err


def test_lts_json_golden(capsys):
    code, out, _ = run(capsys, "lts", "--calculus", "ma", "--format",
                       "json", "open n.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "its"
    assert [t["label"] for t in payload["transitions"]] == ["- | n[@X1]"]
    assert payload["transitions"][0]["rule"] == "Open"


def test_lts_dot_shape(capsys):
    code, out, _ = run(capsys, "lts", "--calculus", "ccs", "--format",
                       "dot", "a.0")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out and out.rstrip().endswith("}")


def test_lts_ordinary(capsys):
    code, out, _ = run(capsys, "lts", "--calculus", "ccs", "--ordinary",
                       "--format", "json", "a.0 | 'a.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "ordinary"
    assert "tau" in {t["label"] for t in payload["transitions"]}


def test_reduce_output(capsys):
    code, out, _ = run(capsys, "reduce", "--calculus", "ccs", "--format",
                       "json", "a.0 | 'a.b.0")
    assert code == 0
    payload = json.loads(out)
    assert [r["rule"] for r in payload["reducts"]] == ["Comm"]
    assert payload["reducts"][0]["target"] == "b.0"


def test_reduce_positions_name_components(capsys):
    code, out, _ = run(capsys, "reduce", "--calculus", "ccs",
                       "a.0 | 'a.0 | tau.b.0")
    assert code == 0
    assert [ln.split("  ->")[0].strip() for ln in out.splitlines()[1:]] \
        == ["Comm at comm:1,2", "Tau at tau:0"]


def test_reduce_prints_the_term_its_positions_index(capsys):
    # the positions count the components of the canonical form, so that
    # form, not the source as typed, heads the list
    code, out, _ = run(capsys, "reduce", "--calculus", "accs",
                       "a.0 | 'a | tau.0")
    assert code == 0
    assert out.splitlines() == [
        "2 reduction(s) from 'a | tau.0 | a.0",
        "  Comm at comm:2,0  ->  tau.0",
        "  Tau at tau:1  ->  'a | a.0"]
    code, out, _ = run(capsys, "reduce", "--calculus", "accs", "--format",
                       "json", "a.0 | 'a | tau.0")
    assert json.loads(out)["term"] == "'a | tau.0 | a.0"


def test_refusal_in_a_term_file_names_file_line_and_column(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bad.txt").write_text("a.0 |\n  b.\n")
    code, out, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                         "strong", "@bad.txt", "0")
    assert (code, out) == (2, "")
    # the end of input sits just after the last character that is not
    # blank, not on a line after the file's last newline
    assert err == ("parse error: bad.txt:2:5: expected a process, "
                   "found 'end of input'\n")
    code, out, err = run(capsys, "barbs", "--calculus", "ccs", "a.(b.0   ")
    assert (code, out) == (2, "")
    assert err == "parse error: 1:7: expected ')', found 'end of input'\n"


@pytest.mark.parametrize("argv,message", [
    (["reduce", "--calculus", "ccs", "a.(b.0"],
     "parse error: 1:7: expected ')', found 'end of input'"),
    (["check", "--calculus", "ccs", "--rel", "strong", "--mode", "bogus",
      "0", "0"],
     "unknown mode 'bogus'; use 'symbolic' or 'instantiate:@poolfile'"),
    (["corpus", json.dumps({"calculus": "pi"})],
     "corpus spec needs a valid calculus: 'pi' is not a valid Calculus"),
])
def test_refusals_exit_two_with_their_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_refusals_in_pattern_and_pool_files_name_file_line_and_column(
        capsys, tmp_path):
    pats = tmp_path / "pats.txt"
    pats.write_text("-\n  - | in ?x.@X | out ?x.0\n")
    code, out, err = run(capsys, "check", "--calculus", "ma", "--rel",
                         "l-bisim", "--labels", f"@{pats}", "0", "0")
    assert (code, out) == (2, "")
    assert err == f"parse error: {pats}:2:22: variable 'x' occurs twice\n"
    pool = tmp_path / "pool.txt"
    pool.write_text("# pool\n0\n\n  a[0] | (\n")
    code, out, err = run(capsys, "check", "--calculus", "ma", "--rel",
                         "semi-sat", "--mode", f"instantiate:@{pool}",
                         "0", "0")
    assert (code, out) == (2, "")
    assert err == (f"parse error: {pool}:4:11: expected a process, "
                   "found 'end of input'\n")


def test_barbs_output(capsys):
    code, out, _ = run(capsys, "barbs", "--calculus", "accs", "'a | b.0")
    assert code == 0
    assert out.split() == ["'a"]


def test_pred_verb(capsys):
    code, out, _ = run(capsys, "pred", "--calculus", "ma", "--kind", "open",
                       "--name", "n", "--t1", "w[0]",
                       "n[k[0]]", "k[0] | w[0]")
    assert code == 0
    assert "holds" in out
    code, _, _ = run(capsys, "pred", "--calculus", "ma", "--kind", "open",
                     "--name", "m", "--t1", "w[0]",
                     "n[k[0]]", "k[0] | w[0]")
    assert code == 1

    # a name the grammar cannot write is a usage error, not a verdict
    for name in ("", "tau"):
        code, out, _ = run(capsys, "pred", "--calculus", "ma", "--kind",
                           "open", "--name", name, "--t1", "w[0]",
                           "n[k[0]]", "k[0] | w[0]")
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "pred", "--calculus", "ccs", "--kind",
                           "out", "--name", name, "--t1", "c.0",
                           "a.b.0", "b.0 | c.0")
        assert (code, out) == (2, "")

    code, out, _ = run(capsys, "pred", "--calculus", "ccs", "--kind", "tau",
                       "a.0 | 'a.b.0", "b.0")
    assert (code, out) == (0, "holds\n")
    code, out, _ = run(capsys, "pred", "--calculus", "ccs", "--kind", "tau",
                       "a.0 | 'a.b.0", "0")
    assert (code, out) == (1, "does not hold\n")
    # a term with a process variable is refused by every kind, tau included
    code, out, err = run(capsys, "pred", "--calculus", "ccs", "--kind", "tau",
                         "tau.0 | @X", "0 | @X")
    assert (code, out) == (2, "") and "'tau'" in err


@pytest.mark.parametrize("argv, kind", [
    (["--calculus", "ccs", "--kind", "sideways", "a.0", "0"], "sideways"),
    (["--calculus", "ccs", "--kind", "out", "--t1", "0", "a.0", "0"], "out"),
    (["--calculus", "ccs", "--kind", "in", "--name", "a", "'a.0", "0"], "in"),
    (["--calculus", "ma", "--kind", "open", "n[0]", "0"], "open"),
    (["--calculus", "accs", "--kind", "tau", "tau.0", "0"], "tau"),
    (["--calculus", "ccs", "--kind", "tau", "--name", "a",
      "a.0 | 'a.b.0", "b.0"], "tau"),
    (["--calculus", "ccs", "--kind", "tau", "--t1", "c.0",
      "a.0 | 'a.b.0", "b.0"], "tau"),
])
def test_pred_refusals_name_the_kind(capsys, argv, kind):
    code, out, err = run(capsys, "pred", *argv)
    assert (code, out) == (2, "") and f"'{kind}'" in err, err


def test_corpus_verb(capsys, tmp_path):
    spec = {"calculus": "ccs", "names": ["a", "b"], "count": 25,
            "seed": 7, "random": 30, "pairs": 20,
            "checks": ["roundtrip", "idempotence", "lts"]}
    f = tmp_path / "suite.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "corpus", f"@{f}")
    assert code == 0
    assert out.splitlines()[-1] == "suite passed"
    code, out, _ = run(capsys, "corpus", "--format", "json", f"@{f}")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {c["name"] for c in payload["checks"]} \
        == {"roundtrip-ccs", "canonical-idempotent-ccs",
            "lts-correspondence-ccs"}


def test_failing_corpus_suite_exits_one_and_names_failures(capsys,
                                                           monkeypatch):
    failures = [f"case {i}" for i in range(12)]
    monkeypatch.setattr(
        "lbisim.corpus.check_roundtrip",
        lambda calc, count, rng, names: CheckOutcome("roundtrip-ccs", 30,
                                                     failures))
    spec = json.dumps({"calculus": "ccs", "count": 25, "random": 30,
                       "checks": ["roundtrip", "idempotence"]})
    code, out, _ = run(capsys, "corpus", spec)
    lines = out.splitlines()
    assert code == 1
    at = lines.index("FAIL roundtrip-ccs  (30 cases, 12 failures)")
    assert lines[at + 1:at + 4] == ["       case 0", "       case 1",
                                    "       case 2"]
    assert not lines[at + 4].startswith(" ")
    assert sum(line.startswith("       ") for line in lines) == 3
    assert lines[-1] == "suite FAILED"
    code, out, _ = run(capsys, "corpus", "--format", "json", spec)
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    [failed] = [c for c in payload["checks"] if not c["ok"]]
    assert failed["failures"] == failures[:10]


def test_malformed_corpus_spec_is_refused_at_its_position(capsys, tmp_path):
    text = '{"calculus": "ccs",\n "checks": [roundtrip]}'
    f = tmp_path / "spec.json"
    f.write_text(text)
    code, out, err = run(capsys, "corpus", f"@{f}")
    assert (code, out) == (2, "")
    assert err == f"{f}:2:13: corpus spec is not JSON: Expecting value\n"
    code, out, err = run(capsys, "corpus", text)
    assert (code, out, err) == (2, "", "2:13: corpus spec is not JSON: "
                                       "Expecting value\n")


def test_corpus_rejects_unknown_check(capsys):
    spec = json.dumps({"calculus": "ccs", "count": 10,
                       "checks": ["sideways"]})
    code, _, err = run(capsys, "corpus", spec)
    assert code == 2


@pytest.mark.parametrize("spec,field", [
    ([], "JSON object"),
    (1, "JSON object"),
    ({"names": [1, 2]}, "names"),
    ({"checks": "roundtrip"}, "checks"),
    ({"checks": ["roundtrip", 3]}, "checks"),
    ({"t1_pool": [3]}, "t1_pool"),
    ({"pair_list": [["a.0"]]}, "pair_list"),
    ({"pair_list": [["a.0", 1]]}, "pair_list"),
    ({"pair_list": "a.0"}, "pair_list"),
    ({"count": -1}, "count"),
    ({"random": 1.5}, "random"),
    ({"pairs": "9"}, "pairs"),
    ({"triples": True}, "triples"),
    ({"seed": "7"}, "seed"),
    ({"names": ["tau"]}, "names"),
    ({"names": ["a b"]}, "names"),
    ({"checks": 0}, "checks"),
    ({"names": ""}, "names"),
    ({"pair_list": 0}, "pair_list"),
    # terms with process variables, refused before any check runs
    ({"t1_pool": ["0", "@X"], "checks": ["pred"]}, "t1_pool"),
    ({"t1_pool": ["@X"], "checks": ["roundtrip"]}, "t1_pool"),
    ({"pair_list": [["a.0", "a.0"], ["@X", "0"]],
      "checks": ["roundtrip", "endpoints"]}, "pair_list"),
    # terms that do not parse, named with their field and position
    ({"checks": ["coincidence"], "pair_list": [["a.0", "a.b"]]},
     "pair_list term 'a.b': parse error: 1:3: "),
    ({"checks": ["pred"], "t1_pool": ["c."]},
     "t1_pool term 'c.': parse error: 1:3: "),
])
def test_corpus_spec_fields_are_validated(capsys, spec, field):
    if isinstance(spec, dict):
        spec = {"calculus": "ccs", "count": 10, "checks": ["lts"], **spec}
    code, out, err = run(capsys, "corpus", json.dumps(spec))
    assert code == 2, err
    assert field in err and not out
    if field == "JSON object":     # the overrides set no field of it
        code, _, err = run(capsys, "corpus", "--seed", "3", "--max-pairs",
                           "9", json.dumps(spec))
        assert code == 2 and field in err


def test_corpus_endpoints_play_a_whole_pair_list(capsys):
    """An explicit pair_list is played whole by both pair checks; only
    enumerated pairs are cut to max(60, pairs // 3) for endpoints."""
    terms = enumerate_terms(Calculus.CCS, ("a", "b"), count=13)
    pair_list = [[print_term(p), print_term(q)]
                 for p, q in term_pairs(terms, 70)]
    spec = {"calculus": "ccs", "checks": ["coincidence", "endpoints"],
            "pair_list": pair_list}
    code, out, _ = run(capsys, "corpus", "--format", "json", json.dumps(spec))
    assert code == 0
    assert [c["total"] for c in json.loads(out)["checks"]] == [70, 70]
    spec = {"calculus": "ccs", "checks": ["coincidence", "endpoints"],
            "count": 40, "pairs": 70}
    code, out, _ = run(capsys, "corpus", "--format", "json", json.dumps(spec))
    assert code == 0
    assert [c["total"] for c in json.loads(out)["checks"]] == [100, 60]


# the stem of the outcome name each corpus check reports
_OUTCOME = {"roundtrip": "roundtrip", "idempotence": "canonical-idempotent",
            "axioms": "axiom-soundness", "shuffle": "shuffle-congruent",
            "reducts": "reducts-congruence-invariant",
            "lts": "lts-correspondence", "coincidence": "coincidence",
            "endpoints": "endpoints", "barbs": "barb-capturing",
            "pred": "pred", "congruence": "congruence"}


@pytest.mark.parametrize("calc", ["ccs", "accs", "ma"])
def test_default_suite_runs_every_check(calc):
    out = run_suite({"calculus": calc, "count": 40, "random": 20,
                     "pairs": 20, "triples": 6})
    checks = DEFAULT_CHECKS[Calculus(calc)]
    assert len(out) == len(checks)
    for name, outcome in zip(checks, out):
        assert outcome.name.startswith(_OUTCOME[name] + "-"), outcome.name
        assert outcome.total and outcome.ok, (outcome.name, outcome.failures)


# check -> (spec fields, budget, cases within the budget)
_OVER_BUDGET = {
    # each game of the one pair needs 4 pairs
    "coincidence": ({"pair_list": [["a.b.(c.0 + c.0)", "a.b.c.0"]]}, 2, 0),
    "endpoints": ({"pair_list": [["a.b.(c.0 + c.0)", "a.b.c.0"]]}, 2, 0),
    # the first 8 cases put 0 ~ (nu a) a.0 in each context; only under
    # the two binders does the game end at its root, which has no move
    "congruence": ({"triples": 8}, 1, 2),
}


@pytest.mark.parametrize("check", list(_OVER_BUDGET))
def test_corpus_game_checks_skip_pairs_over_budget(capsys, check):
    """A case whose game runs over the suite's budget is skipped and not
    counted."""
    fields, budget, total = _OVER_BUDGET[check]
    spec = {"calculus": "ccs", "checks": [check], **fields}
    code, out, _ = run(capsys, "corpus", "--max-pairs", str(budget),
                       "--format", "json", json.dumps(spec))
    assert code == 0
    [outcome] = json.loads(out)["checks"]
    assert (outcome["total"], outcome["failures"]) == (total, [])


def test_corpus_spec_accepts_zero_counts(capsys):
    spec = {"calculus": "ccs", "count": 0, "random": 0, "pairs": 0,
            "names": None, "checks": ["roundtrip", "lts"]}
    code, out, _ = run(capsys, "corpus", json.dumps(spec))
    assert code == 0
    assert out.splitlines()[-1] == "suite passed"
    # a corpus without barbs has every barb captured
    for count in (0, 1):
        spec = {"calculus": "ma", "count": count, "checks": ["barbs"]}
        code, out, _ = run(capsys, "corpus", json.dumps(spec))
        assert code == 0
        assert out.splitlines()[-1] == "suite passed"


# Each nesting kind, its text nested k deep, and the deepest k the parser
# accepts: a prefix or a restriction takes one parser frame and a
# bracket five, under the three or four frames of the enclosing rules.
_NESTINGS = {
    "prefix": ("ccs", lambda k: "a." * k + "0", MAX_DEPTH - 3),
    "restriction": ("ccs", lambda k: "(nu a) " * k + "a.0", MAX_DEPTH - 4),
    "ambient": ("ma", lambda k: "a[" * k + "0" + "]" * k,
                (MAX_DEPTH - 3) // 5),
    "parenthesis": ("ccs", lambda k: "(" * k + "a.0" + ")" * k,
                    (MAX_DEPTH - 4) // 5),
}


@pytest.mark.parametrize("kind", list(_NESTINGS))
def test_nesting_limit(capsys, kind):
    calc, nest, deepest = _NESTINGS[kind]
    check = ("check", "--calculus", calc, "--rel", "semi-sat")
    code, out, err = run(capsys, *check, nest(deepest), "0")
    assert code in (0, 1), err
    assert out.splitlines()[0] in ("equivalent", "inequivalent")
    code, out, err = run(capsys, *check, nest(deepest + 1), "0")
    assert code == 2 and not out
    assert f"nested deeper than the parser's limit of {MAX_DEPTH}" in err


def test_deep_inputs_exit_two_or_get_a_verdict(capsys):
    chain = "a." * 500
    code, _, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                       "strong", f"{chain}0 | {chain}b.0", "0")
    assert code == 1, err
    for argv in (("check", "--calculus", "ma", "--rel", "semi-sat",
                  "a[" * 200 + "0" + "]" * 200, "0"),
                 ("reduce", "--calculus", "ccs", "(" * 200 + "a.0" + ")" * 200),
                 ("check", "--calculus", "ccs", "--rel", "semi-sat",
                  "a." * 1200 + "0", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv[:2]
        assert err.startswith("parse error: 1:")


def test_deep_capability_chain_over_a_cluster_gets_a_verdict(capsys):
    # the deepest chain the parser accepts: a frame per capability, one
    # for the restriction and five for the ambient's brackets, under the
    # three frames of the enclosing rules
    deepest = MAX_DEPTH - 9
    check = ("check", "--calculus", "ma", "--rel", "semi-sat")
    p = "in a." * deepest + "(nu k) k[0]"
    code, out, err = run(capsys, *check, p, "0")
    assert code == 1, err
    assert out.splitlines()[0] == "inequivalent"
    code, out, err = run(capsys, *check, p.replace("k", "j"), p)
    assert code == 0, err
    assert out.splitlines()[0] == "equivalent"
    code, out, err = run(capsys, *check, "in a." + p, "0")
    assert code == 2 and not out
    assert f"nested deeper than the parser's limit of {MAX_DEPTH}" in err


def test_eight_name_asymmetric_cluster_gets_a_verdict(capsys):
    # a ring of nested ambients with a chord: no binder order is
    # interchangeable with another, so every order is a distinct body
    ks = [f"k{i}" for i in range(1, 9)]
    comps = [f"{ks[i]}[{ks[(i + 1) % 8]}[0]]" for i in range(8)]
    comps += ["k1[k3[0]]", "open n.0"]
    p = "".join(f"(nu {k}) " for k in ks) + f"({' | '.join(comps)})"
    q = "".join(f"(nu {k}) " for k in reversed(ks)) \
        + f"({' | '.join(reversed(comps))})"
    for other, verdict in ((q, "equivalent"), ("open n.0", "equivalent"),
                           ("0", "inequivalent")):
        code, out, err = run(capsys, "check", "--calculus", "ma", "--rel",
                             "semi-sat", p, other)
        assert code == (verdict == "inequivalent"), err
        assert out.splitlines()[0] == verdict


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "check", "--calculus", "ccs", "a.0", "b.0")[0] == 2


def test_parser_is_built_once(capsys, monkeypatch):
    """The parser is built at import; `main` never builds another."""
    built = []
    monkeypatch.setattr(lbisim.cli, "build_parser",
                        lambda: built.append(1))
    assert run(capsys, "check", "--calculus", "ccs", "--rel", "strong",
               "a.0", "a.0")[0] == 0
    assert run(capsys, "lts", "--calculus", "ccs", "a.0")[0] == 0
    assert run(capsys, "reduce", "--calculus", "ccs", "a.0 | 'a.0")[0] == 0
    assert run(capsys, "check", "--calculus", "ccs", "a.0")[0] == 2
    assert not built


def test_options_do_not_leak_between_calls(capsys, monkeypatch):
    code, _, err = run(capsys, "check", "--calculus", "accs", "--rel",
                       "l-bisim", "--labels", "LA", "a.0", "a.0")
    assert code == 0, err
    code, _, err = run(capsys, "check", "--calculus", "accs", "--rel",
                       "strong", "a.0", "a.0")
    assert code == 0, err
    code, out, _ = run(capsys, "lts", "--calculus", "ccs", "--ordinary",
                       "--format", "json", "a.0")
    assert code == 0 and json.loads(out)["kind"] == "ordinary"
    code, out, _ = run(capsys, "lts", "--calculus", "ccs", "--format",
                       "json", "a.0")
    assert code == 0 and json.loads(out)["kind"] == "its"
    specs = []
    monkeypatch.setattr(lbisim.cli, "run_suite",
                        lambda spec: specs.append(dict(spec)) or [])
    spec = json.dumps({"calculus": "ccs", "seed": 7, "max_pairs": 40})
    assert run(capsys, "corpus", "--seed", "3", "--max-pairs", "5",
               spec)[0] == 0
    assert run(capsys, "corpus", spec)[0] == 0
    assert [(s["seed"], s["max_pairs"]) for s in specs] == [(3, 5), (7, 40)]


def test_usage_error_then_valid_call(capsys):
    code, out, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                         "nonsense", "a.0", "a.0")
    assert code == 2 and not out
    assert err.startswith("usage: lbisim check") and "--rel" in err
    code, out, err = run(capsys, "check", "--calculus", "ccs", "--rel",
                         "strong", "a.0", "a.0")
    assert code == 0 and not err
    assert out.splitlines()[0] == "equivalent"


_HASH_ORDER_QUERIES = [
    ("accs", ["ipo"], "a.'a + tau.0", "tau.0"),
    ("ccs", ["semi-sat"], "b.0 | 'c.0 | a.0 + a.0", "b.0 | 'c.0 | a.0"),
    ("ma", ["l-bisim", "--labels", "LM"], "n[in m.0] | j[0]",
     "n[out m.0] | j[0]"),
]


def test_output_does_not_depend_on_hash_order():
    """Nodes hash by identity, so set order follows memory addresses;
    verdicts, witnesses and pair counts must not."""
    src = str(Path(lbisim.cli.__file__).resolve().parents[1])
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for calc, rel, p, q in _HASH_ORDER_QUERIES:
            proc = subprocess.run(
                [sys.executable, "-m", "lbisim.cli", "check", "--format",
                 "json", "--calculus", calc, "--rel", *rel, p, q],
                env=env, capture_output=True, check=False)
            assert proc.returncode in (0, 1), proc.stderr
            outputs.setdefault((calc, p, q), set()).add(proc.stdout)
    for key, seen in outputs.items():
        assert len(seen) == 1, key
    flagship = json.loads(outputs["accs", "a.'a + tau.0", "tau.0"].pop())
    assert flagship["verdict"] == "inequivalent" and flagship["witness"]
