"""tools/bench_compare.py on synthetic BENCH files: pairing, wins, the gain
rule in both metric directions, the bound verdicts, failed shares, work
counts, and argument checks."""

from __future__ import annotations

import json

import pytest

from helpers import load_module

bench_compare = load_module("tools/bench_compare.py")
bench_record = load_module("tools/bench_record.py")  # writes the summaries record() holds

# direction and bound of two of the end-to-end metrics of BENCHMARK.json
BETTER = {"ops_per_s": ("higher", 0.2), "latency_p50_ms": ("lower", 0.15)}


def record(failed=0, **workloads):
    """A BENCH record whose workloads hold the given per-run metric lists;
    each run attempted 10 operations and the first run failed `failed`."""
    result = {"label": "x", "commit": "0" * 40, "workloads": {}}
    for workload, metrics in workloads.items():
        count = len(next(iter(metrics.values())))
        runs = [{"seed": 101 + k, "attempted": 10, "failed": 0 if k else failed,
                 "metrics": {name: values[k] for name, values in metrics.items()}}
                for k in range(count)]
        result["workloads"][workload] = {
            "runs": runs,
            "summary": {name: bench_record.summary(values) for name, values in metrics.items()},
        }
    return result


def row(table, workload, metric):
    return next(r for r in table[workload]["rows"] if r["metric"] == metric)


def test_gain_holds_on_nine_wins_and_a_gap_beyond_the_parent_iqr():
    parent = record(w={"ops_per_s": [100, 101, 102, 103, 104, 100, 101, 102, 103, 104],
                       "latency_p50_ms": [10.0] * 10})
    # run 10 loses, so 9 of 10 pairs win; medians 102 -> 110.5 against an IQR of 2
    change = record(w={"ops_per_s": [110, 111, 112, 113, 114, 108, 109, 110, 111, 99],
                       "latency_p50_ms": [9.0] * 9 + [10.0]})
    table = bench_compare.compare(parent, change, BETTER)
    ops = row(table, "w", "ops_per_s")
    assert (ops["pairs"], ops["wins"], ops["claim"]) == (10, 9, True)
    # lower is better: nine runs at 9.0 win, the tie at 10.0 counts for neither
    latency = row(table, "w", "latency_p50_ms")
    assert (latency["wins"], latency["claim"]) == (9, True)


def test_gain_not_shown_on_eight_wins_or_a_gap_inside_the_iqr():
    parent = record(w={"ops_per_s": [100, 110, 120, 130, 100, 110, 120, 130, 100, 110],
                       "latency_p50_ms": [10.0] * 10})
    # every pair wins by 1, but the median gap of 1 is inside the parent's IQR of 20
    inside = record(w={"ops_per_s": [101, 111, 121, 131, 101, 111, 121, 131, 101, 111],
                       "latency_p50_ms": [10.0] * 8 + [9.0, 9.0]})
    table = bench_compare.compare(parent, inside, BETTER)
    assert (row(table, "w", "ops_per_s")["wins"], row(table, "w", "ops_per_s")["claim"]) == (
        10, False)
    # two wins and eight ties: the medians do not move
    assert (row(table, "w", "latency_p50_ms")["wins"],
            row(table, "w", "latency_p50_ms")["claim"]) == (2, False)
    # eight wins with a large gap is still not nine tenths
    eight = record(w={"ops_per_s": [200] * 8 + [1, 1], "latency_p50_ms": [1.0] * 10})
    assert row(bench_compare.compare(parent, eight, BETTER), "w", "ops_per_s")["claim"] is False


def test_only_shared_workloads_are_paired_and_rendered():
    parent = record(a={"ops_per_s": [1, 2], "latency_p50_ms": [5.0, 5.0]},
                    b={"ops_per_s": [1], "latency_p50_ms": [1.0]})
    change = record(a={"ops_per_s": [3, 4, 5], "latency_p50_ms": [4.0, 6.0, 4.0]})
    table = bench_compare.compare(parent, change, BETTER)
    assert list(table) == ["a"]
    assert [(r["pairs"], r["wins"]) for r in table["a"]["rows"]] == [(2, 2), (2, 1)]
    text = bench_compare.render(table)
    assert text.startswith("a: parent -> change, median [q1, q3]\n")
    assert "  ops_per_s " in text and "+166.7%" in text and "wins 2/2" in text


def test_main_reads_labels_from_the_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_compare, "ROOT", tmp_path)
    # the five end-to-end metrics of BENCHMARK.json; only ops_per_s and
    # latency_p50_ms move
    flat = {"latency_p90_ms": [3.0] * 10, "setup_s": [0.1] * 10, "peak_rss_mb": [18.0] * 10}
    parent = record(w={"ops_per_s": [100] * 10, "latency_p50_ms": [2.0] * 10, **flat})
    change = record(w={"ops_per_s": [120] * 10, "latency_p50_ms": [1.0] * 10, **flat})
    (tmp_path / "BENCH_p.json").write_text(json.dumps(parent))
    (tmp_path / "BENCH_c-1.json").write_text(json.dumps(change))
    assert bench_compare.main(["p", "c-1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "w: parent -> change, median [q1, q3]" and len(lines) == 7
    assert lines[1].split() == ["failed", "0/100", "->", "0/100"]
    assert [line.split()[0] for line in lines[2:]] == [
        "ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"]
    assert lines[2].endswith("+20.0%  wins 10/10  gain holds  within bound")
    assert lines[3].endswith("-50.0%  wins 10/10  gain holds  within bound")
    assert all(line.endswith("+0.0%  wins 0/10  gain not shown  within bound")
               for line in lines[4:])


def verdicts(parent, change):
    return [r["bound"] for r in bench_compare.compare(parent, change, BETTER)["w"]["rows"]]


def test_a_change_no_worse_than_its_bound_is_within_bound():
    parent = record(w={"ops_per_s": [100, 101, 102, 103, 104] * 2,
                       "latency_p50_ms": [2.0, 2.1, 2.0, 2.1, 2.0] * 2})
    # medians 102 -> 85 (16.7% worse, bound 20%) and 2.0 -> 2.25 (12.5%, bound 15%)
    slower = record(w={"ops_per_s": [85] * 10, "latency_p50_ms": [2.25] * 10})
    assert verdicts(parent, slower) == ["within bound", "within bound"]
    # better, or unchanged, is within bound too
    faster = record(w={"ops_per_s": [150] * 10, "latency_p50_ms": [1.0] * 10})
    assert verdicts(parent, faster) == ["within bound", "within bound"]
    assert verdicts(parent, parent) == ["within bound", "within bound"]


def test_a_change_worse_than_its_bound_is_worse_past_bound():
    parent = record(w={"ops_per_s": [100, 101, 102, 103, 104] * 2,
                       "latency_p50_ms": [2.0, 2.1, 2.0, 2.1, 2.0] * 2})
    # 102 -> 80 is 21.6% fewer operations; 2.0 -> 2.4 is 20% more latency
    worse = record(w={"ops_per_s": [80] * 10, "latency_p50_ms": [2.4] * 10})
    assert verdicts(parent, worse) == ["worse past bound", "worse past bound"]
    # a worse median is past the bound however many pairs the change wins
    mixed = record(w={"ops_per_s": [105, 105, 105, 105, 105, 70, 70, 70, 70, 70, 70],
                      "latency_p50_ms": [2.4] * 11})
    assert verdicts(parent, mixed)[0] == "worse past bound"
    text = bench_compare.render(bench_compare.compare(parent, worse, BETTER))
    assert text.splitlines()[2].endswith("gain not shown  worse past bound")


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # interquartile ranges 40 around a median of 100 (bound 20) and 0.5
    # around 2.0 (bound 0.3)
    parent = record(w={"ops_per_s": [60, 80, 100, 120, 140] * 2,
                       "latency_p50_ms": [1.5, 1.75, 2.0, 2.25, 2.5] * 2})
    same = record(w={"ops_per_s": [100] * 10, "latency_p50_ms": [2.0] * 10})
    assert verdicts(parent, same) == ["unresolved", "unresolved"]
    worse = record(w={"ops_per_s": [10] * 10, "latency_p50_ms": [9.0] * 10})
    assert verdicts(parent, worse) == ["unresolved", "unresolved"]
    # unless every run of the change beats every run of the parent
    beats = record(w={"ops_per_s": [141] * 10, "latency_p50_ms": [1.49] * 10})
    assert verdicts(parent, beats) == ["within bound", "within bound"]
    # a tie with the parent's best run is not a beat
    ties = record(w={"ops_per_s": [140] * 10, "latency_p50_ms": [1.5] * 10})
    assert verdicts(parent, ties) == ["unresolved", "unresolved"]


def test_gain_needs_a_failed_share_no_larger_than_the_parents():
    parent = record(w={"ops_per_s": [100] * 10, "latency_p50_ms": [2.0] * 10})
    faster = {"ops_per_s": [120] * 10, "latency_p50_ms": [1.0] * 10}
    table = bench_compare.compare(parent, record(failed=1, **{"w": faster}), BETTER)
    assert table["w"]["failed"] == ((0, 100), (1, 100))
    assert [r["claim"] for r in table["w"]["rows"]] == [False, False]
    assert bench_compare.render(table).splitlines()[1].split() == ["failed", "0/100", "->", "1/100"]
    # an equal share, or a smaller one over more attempts, keeps the gain
    both = record(failed=1, w={"ops_per_s": [100] * 10, "latency_p50_ms": [2.0] * 10})
    table = bench_compare.compare(both, record(failed=1, **{"w": faster}), BETTER)
    assert [r["claim"] for r in table["w"]["rows"]] == [True, True]
    more = record(failed=1, w={"ops_per_s": [120] * 11, "latency_p50_ms": [1.0] * 11})
    assert [r["claim"] for r in bench_compare.compare(both, more, BETTER)["w"]["rows"]] == [
        True, True]


def with_counts(bench, **counts):
    bench["workloads"]["w"]["counts"] = counts
    return bench


def test_counts_print_parent_to_change_with_their_difference():
    same = {"ops_per_s": [1] * 3, "latency_p50_ms": [1.0] * 3}
    parent = with_counts(record(w=same), **{"quotient.nf.calls": 175.25,
                                            "polycore.mul.calls": 1237 / 3,
                                            "polycore.grevlex_key.calls": 529.0})
    change = with_counts(record(w=same), **{"quotient.nf.calls": 175.25,
                                            "polycore.mul.calls": 779 / 3,
                                            "quotient.dot.calls": 157.5})
    table = bench_compare.compare(parent, change, BETTER)
    assert table["w"]["counts"] == [
        ("quotient.nf.calls", 175.25, 175.25),
        ("polycore.mul.calls", 1237 / 3, 779 / 3),
        ("polycore.grevlex_key.calls", 529.0, None),
        ("quotient.dot.calls", None, 157.5),
    ]
    lines = bench_compare.render(table).splitlines()[4:]
    assert lines[0] == "  counts per op, --trace 1 --seed 1: parent -> change (difference)"
    assert [line.split() for line in lines[1:]] == [
        ["quotient.nf.calls", "175.25", "->", "175.25", "(+0)"],
        ["polycore.mul.calls", "412.3333333", "->", "259.6666667", "(-152.6666667)"],
        ["polycore.grevlex_key.calls", "529", "->", "-"],
        ["quotient.dot.calls", "-", "->", "157.5"],
    ]


def test_records_without_counts_compare_as_before():
    old = record(w={"ops_per_s": [1, 2], "latency_p50_ms": [5.0, 5.0]})
    new = with_counts(record(w={"ops_per_s": [3, 4], "latency_p50_ms": [4.0, 4.0]}))
    for parent, change in ((old, old), (old, new)):
        table = bench_compare.compare(parent, change, BETTER)
        assert table["w"]["counts"] == []
        assert "counts" not in bench_compare.render(table)
        assert len(bench_compare.render(table).splitlines()) == 4


@pytest.mark.parametrize("argv", [[], ["p"], ["p", "c", "x"], ["../p", "c"], ["p", "c.json"]])
def test_malformed_arguments_exit_2(argv, capsys):
    assert bench_compare.main(argv) == 2
    assert capsys.readouterr().err == "usage: bench_compare.py PARENT_LABEL CHANGE_LABEL\n"


def test_missing_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_compare, "ROOT", tmp_path)
    assert bench_compare.main(["p", "c"]) == 2
    assert capsys.readouterr().err == "error: BENCH_p.json does not exist\n"
