import json
import random

import pytest

from reconfig_sim import analyzer, harness, optimizer
from reconfig_sim.cli import cli_dispatch
from reconfig_sim.harness import (
    CSV_HEADER,
    STRATEGY_ORDER,
    SweepSpec,
    bundled_names,
    bundled_text,
    format_ms,
    run_sweep,
    verify_corpus,
    with_gaps,
    with_scale_factor,
)
from reconfig_sim.model import schedule_to_doc
from reconfig_sim.optimizer import candidate_schedules, optimize


def test_format_ms_uses_nine_significant_digits():
    assert format_ms(110.0) == "110"
    assert format_ms(0.25) == "0.25"
    assert format_ms(49.6) == "49.6"
    assert format_ms(900.0 / 110.0) == "8.18181818"


def test_with_scale_factor_rebases_volumes(seq2, seq2_small):
    quarter = with_scale_factor(seq2, 0.25)
    assert quarter.scale_factor == 0.25
    volumes = {t.id: t.volume for t in quarter.tables}
    assert volumes == {"orders": 4.0, "lineitem": 1.5}

    restored = with_scale_factor(seq2_small, 1.0)
    assert {t.id: t.volume for t in restored.tables}["orders"] == 16.0
    with pytest.raises(ValueError):
        with_scale_factor(seq2, 0.0)
    with pytest.raises(ValueError, match=r"tables\[0\]\.volume: not finite"):
        with_scale_factor(seq2, 1e308)


def test_with_gaps_touches_every_pair(seq2):
    relaxed = with_gaps(seq2, 25.0)
    assert relaxed.sequence[0].gap_after_ms == 25.0
    assert relaxed.sequence[1].gap_after_ms == 0.0
    with pytest.raises(ValueError):
        with_gaps(seq2, -1.0)


@pytest.mark.parametrize("gap", [float("nan"), float("inf"), float("-inf")])
def test_with_gaps_rejects_non_finite_gaps(seq2, gap):
    with pytest.raises(ValueError, match="gap_ms must be finite"):
        with_gaps(seq2, gap)


def test_with_gaps_keeps_the_stored_dependency_pairs(corpus, monkeypatch):
    scenarios = [s for _, s in corpus]
    assert any(q.dependencies for s in scenarios for q in s.sequence)
    derived = []
    original = analyzer.invocation_dependencies
    monkeypatch.setattr(analyzer, "invocation_dependencies",
                        lambda q: derived.append(q.id) or original(q))
    for s in scenarios:
        gapped = with_gaps(s, 7.5)
        assert [q.dependencies for q in gapped.sequence] == [q.dependencies for q in s.sequence]
    assert derived == []


def test_scale_sweep_csv_is_exact(seq2):
    spec = SweepSpec("scale_factor", (0.25, 1.0), ("spec_reconfig", "reorder"))
    assert run_sweep(seq2, spec) == (
        "axis,value,strategy,total_ms,improvement_pct\n"
        "scale_factor,0.25,spec_reconfig,52.5,16\n"
        "scale_factor,0.25,reorder,49.6,20.64\n"
        "scale_factor,1,spec_reconfig,101,8.18181818\n"
        "scale_factor,1,reorder,103.4,6\n")


def test_gap_sweep_keeps_absolute_saving_constant(seq2):
    spec = SweepSpec("gap_ms", (0.0, 20.0), ("baseline", "spec_reconfig"))
    rows = run_sweep(seq2, spec).splitlines()
    assert rows[0] == CSV_HEADER
    table = {}
    for row in rows[1:]:
        _, value, strategy, total, improvement = row.split(",")
        table[(value, strategy)] = (float(total), float(improvement))
    assert table[("0", "baseline")][0] == pytest.approx(108.0, abs=1e-9)
    assert table[("20", "baseline")][0] == pytest.approx(128.0, abs=1e-9)
    assert table[("0", "spec_reconfig")][0] == pytest.approx(99.0, abs=1e-9)
    assert table[("20", "spec_reconfig")][0] == pytest.approx(119.0, abs=1e-9)

    saving_short = table[("0", "baseline")][0] - table[("0", "spec_reconfig")][0]
    saving_long = table[("20", "baseline")][0] - table[("20", "spec_reconfig")][0]
    assert saving_short == pytest.approx(saving_long, abs=1e-9)
    # the percentage still moves because the baseline grows with the gap
    assert table[("0", "spec_reconfig")][1] > table[("20", "spec_reconfig")][1]


def test_sweep_is_deterministic_and_thread_safe(seq2):
    spec = SweepSpec("scale_factor", (0.25, 0.5, 1.0, 2.0))
    assert run_sweep(seq2, spec) == run_sweep(seq2, spec)


def _sweep_one_optimize_per_row(s, spec):
    """The CSV as it was defined before sweeps shared one plan per point:
    one optimize call per (value, strategy) row, strategies in STRATEGY_ORDER."""
    rows = [CSV_HEADER]
    for value in spec.values:
        varied = (with_scale_factor(s, value) if spec.axis == "scale_factor"
                  else with_gaps(s, value))
        for strategy in STRATEGY_ORDER:
            if strategy in spec.strategies:
                outcome = optimize(varied, strategy)
                rows.append(",".join((spec.axis, format_ms(value), strategy,
                                      format_ms(outcome.total_ms),
                                      format_ms(outcome.improvement_pct))))
    return "\n".join(rows) + "\n"


def test_sweep_rows_match_one_optimize_per_row(corpus, random_scenario):
    scenarios = [s for _, s in corpus]
    for seed in range(50):
        rng = random.Random(seed)
        scenarios.append(random_scenario(rng, rng.randint(1, 5)))
    axes = {"scale_factor": (0.25, 1.0, 3.0), "gap_ms": (0.0, 2.5, 40.0)}
    for i, s in enumerate(scenarios):
        for axis, values in axes.items():
            for strategies in (STRATEGY_ORDER, ("combined", "baseline"), ("auto",)):
                spec = SweepSpec(axis, values, strategies)
                assert run_sweep(s, spec) == _sweep_one_optimize_per_row(s, spec), (i, spec)

    rows = run_sweep(scenarios[0], SweepSpec("gap_ms", (0.0, 1.0), ("combined", "baseline")))
    assert [row.split(",")[2] for row in rows.splitlines()[1:]] == [
        "baseline", "combined", "baseline", "combined"]


@pytest.fixture
def work_counts(monkeypatch):
    """Count candidate builds and emulations (runs of the emulator's totals
    loop) in every module that binds them."""
    counts = {"builds": 0, "emulations": 0}
    for key, fn in (("builds", optimizer.candidate_schedules),
                    ("emulations", optimizer._timeline)):
        def counting(*args, key=key, fn=fn):
            counts[key] += 1
            return fn(*args)

        for module in (optimizer, harness):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    return counts


@pytest.mark.parametrize("strategies", [STRATEGY_ORDER, ("auto",), ("combined", "baseline")])
def test_sweep_plans_and_emulates_each_point_once(seq2, work_counts, strategies):
    values = (0.0, 1.0, 2.0, 5.0)
    run_sweep(seq2, SweepSpec("gap_ms", values, strategies))
    assert work_counts == {"builds": len(values), "emulations": 4 * len(values)}


def test_verify_corpus_emulates_each_candidate_once(work_counts):
    n = len(verify_corpus())
    assert work_counts == {"builds": n, "emulations": 4 * n}


@pytest.mark.parametrize("kwargs, fragment", [
    ({"axis": "volume", "values": (1.0,)}, "unknown sweep axis"),
    ({"axis": "scale_factor", "values": ()}, "at least one value"),
    ({"axis": "scale_factor", "values": (1.0, 1.0)}, "strictly increasing"),
    ({"axis": "scale_factor", "values": (2.0, 1.0)}, "strictly increasing"),
    ({"axis": "scale_factor", "values": (0.0, 1.0)}, "must be positive"),
    ({"axis": "gap_ms", "values": (-1.0, 0.0)}, "cannot be negative"),
    ({"axis": "gap_ms", "values": (0.0,), "strategies": ()}, "at least one strategy"),
    ({"axis": "gap_ms", "values": (0.0,), "strategies": ("oracle",)}, "unknown strategies"),
    ({"axis": "gap_ms", "values": (float("nan"), 1.0)}, "must be finite"),
    ({"axis": "scale_factor", "values": (1.0, float("nan"))}, "must be finite"),
    ({"axis": "scale_factor", "values": (float("inf"),)}, "must be finite"),
])
def test_sweep_spec_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        SweepSpec(**kwargs)


def test_gap_axis_allows_zero():
    SweepSpec("gap_ms", (0.0, 1.0))


def test_strategies_cross_exactly_once_over_the_volume_grid(seq2):
    """Reordering wins on small inputs, prefetching wins once transfers grow
    long enough to swallow the whole load; the lead changes hands once."""
    grid = [round(0.1 * i, 10) for i in range(1, 41)]
    margins = []
    for scale in grid:
        varied = with_scale_factor(seq2, scale)
        margins.append(optimize(varied, "spec_reconfig").total_ms
                       - optimize(varied, "reorder").total_ms)
    assert margins[0] > 0.0
    assert margins[-1] < 0.0
    flips = sum(1 for a, b in zip(margins, margins[1:]) if (a > 0) != (b > 0))
    assert flips == 1
    flip_at = next(i for i, (a, b) in enumerate(zip(margins, margins[1:]))
                   if (a > 0) != (b > 0))
    assert 0.3 <= grid[flip_at] < grid[flip_at + 1] <= 0.4


def test_bundled_inventory(corpus):
    assert bundled_names() == ["seq2", "seq2_small"] + [
        f"corpus/q{i:02d}" for i in range(1, 16)]

    selectivities = [inv.selectivity
                     for name, s in corpus if name.startswith("corpus/")
                     for q in s.sequence for inv in q.invocations]
    assert min(selectivities) == 0.0
    assert max(selectivities) == 1.0

    primary_volumes = {t.volume
                       for name, s in corpus if name.startswith("corpus/")
                       for t in s.tables if t.id == s.sequence[0].table_id}
    assert sorted(primary_volumes) == [8.0, 16.0, 24.0, 32.0, 40.0, 48.0]


def test_verify_corpus_is_clean():
    for name, problems in verify_corpus():
        assert problems == [], name


def test_bundled_text_unknown_name():
    with pytest.raises(FileNotFoundError):
        bundled_text("does_not_exist")


# ---------------------------------------------------------------------------
# command line

def test_cli_simulate_prints_totals(capsys):
    assert cli_dispatch(["simulate", "seq2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["per_query_ms=75,33", "total_ms=110"]


def test_cli_simulate_with_schedule_and_trace(tmp_path, capsys, seq2):
    schedule = candidate_schedules(seq2)["spec_reconfig"]
    schedule_path = tmp_path / "schedule.json"
    schedule_path.write_text(json.dumps(schedule_to_doc(seq2, schedule)), encoding="utf-8")
    trace_path = tmp_path / "trace.json"

    code = cli_dispatch(["simulate", "seq2",
                         "--schedule", str(schedule_path),
                         "--trace", str(trace_path)])
    assert code == 0
    assert "total_ms=101" in capsys.readouterr().out

    records = json.loads(trace_path.read_text(encoding="utf-8"))
    assert len(records) == 10
    assert sum(1 for r in records if r["query"] == "speculative") == 1


def test_cli_optimize_reports_the_winner(capsys):
    assert cli_dispatch(["optimize", "seq2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["strategy=spec_reconfig", "total_ms=101",
                   "improvement_pct=8.18181818"]


def test_cli_optimize_writes_outcome_document(tmp_path, capsys):
    out_path = tmp_path / "outcome.json"
    code = cli_dispatch(["optimize", "seq2", "--strategy", "oracle",
                         "--out", str(out_path)])
    assert code == 0
    assert "strategy=oracle" in capsys.readouterr().out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["strategy"] == "oracle"
    assert doc["total_ms"] == pytest.approx(101.0, abs=1e-9)
    assert len(doc["schedule"]["queries"]) == 2


def test_cli_sweep_writes_csv(tmp_path, seq2):
    out_path = tmp_path / "sweep.csv"
    code = cli_dispatch(["sweep", "seq2", "--axis", "scale_factor",
                         "--values", "0.25,1.0",
                         "--strategies", "spec_reconfig,reorder",
                         "--out", str(out_path)])
    assert code == 0
    expected = run_sweep(seq2, SweepSpec("scale_factor", (0.25, 1.0),
                                         ("spec_reconfig", "reorder")))
    assert out_path.read_text(encoding="utf-8") == expected


def test_cli_scenario_can_come_from_a_file(tmp_path, capsys):
    path = tmp_path / "my_scenario.json"
    path.write_text(bundled_text("seq2"), encoding="utf-8")
    assert cli_dispatch(["simulate", str(path)]) == 0
    assert "total_ms=110" in capsys.readouterr().out


def test_cli_missing_scenario_fails_cleanly(capsys):
    assert cli_dispatch(["simulate", "no_such_scenario"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "scenario not found" in err


def test_cli_usage_error_exits_two(capsys):
    assert cli_dispatch(["optimize", "seq2", "--strategy", "bogus"]) == 2
    assert cli_dispatch([]) == 2


def test_cli_rejects_bad_sweep_values(capsys):
    code = cli_dispatch(["sweep", "seq2", "--axis", "gap_ms",
                         "--values", "1,zap", "--out", "ignored.csv"])
    assert code == 1
    assert "invalid --values" in capsys.readouterr().err

    code = cli_dispatch(["sweep", "seq2", "--axis", "gap_ms",
                         "--values", "nan,1", "--out", "ignored.csv"])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err


def test_cli_rejects_overlong_integer_literals(tmp_path, capsys, seq2_doc):
    seq2_doc["tables"][0]["volume"] = "VOLUME"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(seq2_doc).replace('"VOLUME"', "9" * 5001), encoding="utf-8")
    assert cli_dispatch(["simulate", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON")

    schedule = tmp_path / "schedule.json"
    schedule.write_text('{"queries": [{"query": "Q0", "order": [' + "9" * 5001 + "]}]}",
                        encoding="utf-8")
    assert cli_dispatch(["simulate", "seq2", "--schedule", str(schedule)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "invalid JSON" in err


def test_cli_rejects_invalid_schedule(tmp_path, capsys):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"queries": [
        {"query": "Q0", "order": [0, 0]},
        {"query": "Q1", "order": [0]}]}), encoding="utf-8")
    assert cli_dispatch(["simulate", "seq2", "--schedule", str(path)]) == 1
    assert "not a bijection" in capsys.readouterr().err

    path.write_text("{", encoding="utf-8")
    assert cli_dispatch(["simulate", "seq2", "--schedule", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_corpus_verify_and_list(capsys):
    assert cli_dispatch(["corpus", "verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 17
    assert all(line.endswith(": ok") for line in out)

    assert cli_dispatch(["corpus", "list"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert names == bundled_names()
