import hashlib
import json
import random
import re

import pytest

from reconfig_sim import harness, optimizer
from reconfig_sim.cli import cli_dispatch
from reconfig_sim.costmodel import first_unbounded_query, stage_terms
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

from conftest import make_chained_scenario, make_random_scenario, spread_over_modules


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
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError, match="scale factor must be positive"):
            with_scale_factor(seq2, bad)
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


def test_sweep_is_deterministic(seq2):
    spec = SweepSpec("scale_factor", (0.25, 0.5, 1.0, 2.0))
    assert run_sweep(seq2, spec) == run_sweep(seq2, spec)


def test_sweep_rejects_axis_values_past_the_total_bound(seq2):
    # both gave inf or nan totals and improvements before sweeps checked the bound
    for axis, value in (("scale_factor", 1e307), ("gap_ms", 1.7e308)):
        message = f"{axis} {value:.9g}: sequence[0]: an upper bound on the total is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)} by this query$"):
            run_sweep(seq2, SweepSpec(axis, (1.0, value)))
    rows = run_sweep(seq2, SweepSpec("gap_ms", (1.0, 1e300))).splitlines()
    assert rows[-1] == "gap_ms,1e+300,auto,1e+300,0"


def test_a_passed_gap_bounds_as_the_gapped_scenario(corpus):
    """costmodel.first_unbounded_query given a gap answers as on
    with_gaps(s, gap), which a gap sweep relies on to bound its points
    without a copy: on the bundled and seeded scenarios, at gaps up to ones
    that overflow the bound after the first, second or later query.  A gap
    sweep whose largest gap overflows names that value and query, as the
    message read off the gapped copy does."""
    scenarios = [s for _, s in corpus]
    for seed in range(40):
        rng = random.Random(60_000 + seed)
        if seed % 2:
            scenarios.append(make_random_scenario(rng, rng.randint(1, 6)))
        else:
            scenarios.append(spread_over_modules(make_chained_scenario(rng, rng.randint(1, 4)),
                                                 rng, 3))
    where = set()
    for s in scenarios:
        for gap in (0.0, 2.5, 1e300, 3e307, 6e307, 1.7e308):
            unbounded = first_unbounded_query(with_gaps(s, gap))
            assert first_unbounded_query(s, gap) == unbounded, (s, gap)
            where.add(unbounded)
            if unbounded is None:
                continue
            message = (f"gap_ms {format_ms(gap)}: sequence[{unbounded}]: an upper bound on the "
                       "total is not finite by this query")
            with pytest.raises(ValueError) as excinfo:
                run_sweep(s, SweepSpec("gap_ms", (0.0, gap)))
            assert str(excinfo.value) == message
    assert {None, 0, 1, 2} <= where


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


# sha256 over the run_sweep CSVs of the scenarios below on both axes.  The
# test above compares sweeps with optimize, which shares their stage terms
# and event loop; this pins the bytes, so a refactor of how a sweep builds
# or finds its terms that changes any digit fails here.
SWEEP_DIGEST = "19b83bc7fa5863be8e92a421c59041b4ded08206b9cc6c8ea871f06ce66bc891"


def test_sweeps_are_bit_stable(corpus):
    scenarios = [s for _, s in corpus]
    for seed in range(30):
        rng = random.Random(60_000 + seed)
        if seed % 2:
            scenarios.append(make_random_scenario(rng, rng.randint(1, 6)))
        else:
            scenarios.append(spread_over_modules(make_chained_scenario(rng, rng.randint(1, 5)),
                                                 rng, 3))
    specs = (SweepSpec("scale_factor", (0.1, 0.5, 1.0, 2.0, 7.5)),
             SweepSpec("gap_ms", (0.0, 1.0, 5.0, 20.0, 80.0)))
    digest = hashlib.sha256()
    for s in scenarios:
        for spec in specs:
            digest.update(run_sweep(s, spec).encode())
    assert digest.hexdigest() == SWEEP_DIGEST


@pytest.fixture
def work_counts(monkeypatch):
    """Count candidate builds, emulations (runs of the emulator's event loop
    over the whole sequence), stage-term builds (one per query and order),
    scenario copies with other gaps (harness.with_gaps) and scale factors
    (harness.with_scale_factor), and a scale sweep's look-ups
    (costmodel.term_lookup, one per query and order) and per-point term
    builds (costmodel.scaled_stage_terms, one per point for all its query
    and order pairs), in every module that binds them."""
    counts = {"builds": 0, "emulations": 0, "terms": 0, "gap_copies": 0, "scale_copies": 0,
              "lookups": 0, "scaled": 0}
    for key, fn in (("builds", optimizer.candidate_schedules),
                    ("emulations", optimizer._run_queries),
                    ("terms", optimizer.stage_terms),
                    ("gap_copies", harness.with_gaps),
                    ("scale_copies", harness.with_scale_factor),
                    ("lookups", optimizer.term_lookup),
                    ("scaled", optimizer.scaled_stage_terms)):
        def counting(*args, key=key, fn=fn):
            counts[key] += 1
            return fn(*args)

        for module in (optimizer, harness):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    return counts


def _distinct_query_orders(s):
    """The distinct (query index, order) pairs among the four candidates,
    planned without candidate_schedules, which work_counts counts: spec_reconfig
    and combined keep the orders of baseline and reorder."""
    base = optimizer.plan_baseline(s)
    return len({*enumerate(base.orders), *enumerate(optimizer.apply_reorder(s, base).orders)})


@pytest.mark.parametrize("strategies", [STRATEGY_ORDER, ("auto",), ("combined", "baseline")])
def test_sweep_plans_once_and_emulates_each_point_once(seq2, work_counts, strategies):
    """Four emulations per point, every one on the input scenario.  seq2's
    candidates have three distinct (query, order) pairs, since reorder moves
    Q0 and leaves Q1.  A gap sweep builds their stage terms once for all its
    points and copies nothing.  A scale sweep builds none with stage_terms:
    it looks each pair up once and builds every pair's terms from the
    look-ups in one call per point, and its one copy, at the largest scale
    factor, is the bound's."""
    values = (0.25, 1.0, 2.0, 5.0)
    pairs = _distinct_query_orders(seq2)
    assert pairs == 3
    none = {"gap_copies": 0, "scale_copies": 0, "lookups": 0, "scaled": 0}
    for axis, work in (("gap_ms", {"terms": pairs}),
                       ("scale_factor", {"terms": 0, "scale_copies": 1, "lookups": pairs,
                                         "scaled": len(values)})):
        for key in work_counts:
            work_counts[key] = 0
        run_sweep(seq2, SweepSpec(axis, values, strategies))
        assert work_counts == {"builds": 1, "emulations": 4 * len(values), **none, **work}, axis


def test_optimize_builds_each_candidate_query_order_once(work_counts, corpus, random_scenario):
    """auto plans the candidates once, emulates each once and builds the
    stage terms once per distinct (query, order) among them."""
    scenarios = [s for _, s in corpus]
    for seed in range(20):
        rng = random.Random(seed)
        scenarios.append(random_scenario(rng, rng.randint(1, 5)))
    for s in scenarios:
        for key in work_counts:
            work_counts[key] = 0
        optimize(s, "auto")
        assert work_counts == {"builds": 1, "emulations": 4, "terms": _distinct_query_orders(s),
                               "gap_copies": 0, "scale_copies": 0, "lookups": 0, "scaled": 0}


def test_verify_corpus_emulates_each_candidate_once(work_counts, corpus):
    """Six emulations per scenario: the four candidates, then optimal's
    schedule and its baseline.  Stage terms are built once per distinct
    (query, order) among the candidates, twice for a query that reorder
    moves and once for every other, and once per legal order of each query
    for optimal."""
    candidate_terms = sum(_distinct_query_orders(s) for _, s in corpus)
    legal_orders = sum(len(optimizer._legal_orders(q)) for _, s in corpus for q in s.sequence)
    n = len(verify_corpus())
    assert n == len(corpus) and candidate_terms < 2 * sum(len(s.sequence) for _, s in corpus)
    assert work_counts == {"builds": n, "emulations": 6 * n,
                           "terms": candidate_terms + legal_orders, "gap_copies": 0,
                           "scale_copies": 0, "lookups": 0, "scaled": 0}


def test_verify_corpus_flags_an_optimal_above_auto(monkeypatch):
    """A planner that returns the worst candidate under the name optimal,
    with its true total, passes the closed-form check and fails the check
    against auto on every scenario whose candidates differ."""
    def worst_candidate(s):
        return max((optimize(s, name) for name in optimizer.FIXED_STRATEGIES),
                   key=lambda outcome: outcome.total_ms)

    monkeypatch.setattr(optimizer, "optimal", worst_candidate)
    problems = [problem for _, found in verify_corpus() for problem in found]
    assert problems and all(re.fullmatch(r"optimal: total \S+ is above auto's \S+", problem)
                            for problem in problems), problems


def test_verify_corpus_flags_an_optimal_total_off_its_schedule(monkeypatch):
    """A planner whose total is not its schedule's fails the closed-form
    check on every scenario, and only that check."""
    optimal = optimizer.optimal

    def understated(s):
        outcome = optimal(s)
        return outcome.replace(total_ms=outcome.total_ms - 1.0)

    monkeypatch.setattr(optimizer, "optimal", understated)
    results = verify_corpus()
    assert all(len(found) == 1 and re.fullmatch(r"optimal: emulated \S+ differs from closed "
                                                r"form \S+", found[0])
               for _, found in results), results


def test_stage_terms_read_no_gap(seq2, corpus, random_scenario):
    """A gap sweep builds its candidates' stage terms once, on its input
    scenario, and reads them at every gap; that holds only while the terms
    of a scenario with other gaps are equal."""
    scenarios = [seq2] + [s for _, s in corpus]
    for seed in range(30):
        rng = random.Random(seed)
        scenarios.append(random_scenario(rng, rng.randint(1, 5)))
    for s in scenarios:
        candidate_orders = {sch.orders for sch in candidate_schedules(s).values()}
        for gap in (0.0, 2.0, 60.0):
            gapped = with_gaps(s, gap)
            for orders in candidate_orders:
                assert [stage_terms(q, o, gapped) for q, o in zip(gapped.sequence, orders)] == [
                    stage_terms(q, o, s) for q, o in zip(s.sequence, orders)]


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


def test_cli_optimize_oracle_takes_any_length(tmp_path, capsys):
    """--strategy oracle is a synonym of optimal: a five-query scenario
    plans, with optimal's total and improvement."""
    doc = json.loads(harness.bundled_text("seq2"))
    doc["sequence"] = [dict(q, id=f"Q{k}", gap_after_ms=2.0) for k, q in
                       zip(range(5), doc["sequence"] * 3)]
    path = tmp_path / "five.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_dispatch(["optimize", str(path), "--strategy", "oracle"]) == 0
    oracle = capsys.readouterr().out.splitlines()
    assert cli_dispatch(["optimize", str(path), "--strategy", "optimal"]) == 0
    assert oracle[0] == "strategy=oracle"
    assert oracle[1:] == capsys.readouterr().out.splitlines()[1:]


def test_cli_optimize_offers_the_exact_optimum(tmp_path, capsys):
    assert cli_dispatch(["optimize", "seq2", "--strategy", "optimal"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "strategy=optimal", "total_ms=101", "improvement_pct=8.18181818"]
    doc = json.loads(harness.bundled_text("seq2"))
    doc["sequence"][0]["invocations"] *= 5
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_dispatch(["optimize", str(path), "--strategy", "optimal"]) == 1
    assert capsys.readouterr().err == ("error: query Q0 too wide for the optimal strategy: "
                                       "10 invocations (limit: 8 invocations per query)\n")


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


def test_cli_rejects_bad_sweep_values(tmp_path, capsys):
    code = cli_dispatch(["sweep", "seq2", "--axis", "gap_ms",
                         "--values", "1,zap", "--out", "ignored.csv"])
    assert code == 1
    assert "invalid --values" in capsys.readouterr().err

    code = cli_dispatch(["sweep", "seq2", "--axis", "gap_ms",
                         "--values", "nan,1", "--out", "ignored.csv"])
    assert code == 1
    assert capsys.readouterr().err == "error: sweep values must be finite, got (nan, 1.0)\n"

    out_path = tmp_path / "f.csv"
    code = cli_dispatch(["sweep", "seq2", "--axis", "scale_factor", "--values", "1e307",
                         "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: scale_factor 1e+307: sequence[0]")
    assert not out_path.exists()



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


def test_cli_rejects_too_deeply_nested_json(tmp_path, capsys):
    """json.loads raises RecursionError, not ValueError, past its nesting
    limit; both documents the CLI reads report it as invalid JSON."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    assert cli_dispatch(["simulate", str(deep)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON: maximum recursion depth")
    assert cli_dispatch(["simulate", "seq2", "--schedule", str(deep)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {deep}: invalid JSON: maximum recursion depth")


def test_cli_scenario_that_is_not_utf8_names_its_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    assert cli_dispatch(["optimize", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")


def test_cli_schedule_that_is_not_utf8_names_its_file(tmp_path, capsys):
    """A schedule file that cannot be decoded is a read error, not invalid
    JSON."""
    path = tmp_path / "schedule.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli_dispatch(["simulate", "seq2", "--schedule", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


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
