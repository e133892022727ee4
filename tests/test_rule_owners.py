"""Each rule of the model has one owner.  Stage costs are made of the device
and module rates and load times, and only costmodel reads those; which
invocation orders are legal follows from produces and reads, and only
QuerySpec's constructor reads those of its invocations (it checks them and
derives QuerySpec.dependencies from them).  Schedules are
validated where they enter from outside, in the emulator's two public
entries, and nowhere else.  The stage costs of a query in an order are
built in costmodel.stage_terms (and, for a scale sweep's points, in
costmodel.scaled_stage_terms, held to it bit for bit), and combined into a
timeline in one event loop, and into the closed form's per-query table, and nowhere else; those
two alone decide when a load costs nothing because its module is resident.  The operator
vocabulary is read only in the analyzer, and the range and finiteness of a
number field are stated only in record.finite_number.  The rules that span a
scenario's records, its references and the bound on its total, are
Scenario's constructor's, and volumes are rebased in one function."""
import ast
from pathlib import Path

import reconfig_sim

OWNERS = {
    "storage_rate": "costmodel.py",
    "network_rate": "costmodel.py",
    "proc_rate": "costmodel.py",
    "reconfig_ms": "costmodel.py",
    "default_reconfig_ms": "costmodel.py",
}

VOCABULARY = {"COMPARE_KINDS", "ARITH_KINDS", "OPERAND_TYPES"}

STAGE_COSTS = {"scan_time", "accel_runtime", "reconfig_time", "transfer_time",
               "propagate_volumes"}

RANGE_MESSAGES = ("must be finite, got", "must be at least 0", "must be greater than 0")

# each message of a scenario-wide rule, where it is written
SCENARIO_MESSAGES = {
    "is not finite by this query": ("costmodel.py", ""),
    "unknown table": ("model.py", "Scenario.__init__"),
    "unknown accelerator": ("model.py", "Scenario.__init__"),
    "not finite at scale_factor": ("model.py", "rescaled_tables"),
}


def _package_trees():
    """(file name, syntax tree) for every module of the package."""
    for path in sorted(Path(reconfig_sim.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _attribute_reads():
    """(file name, attribute, line) for every attribute read in the package."""
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield name, node.attr, node.lineno


def _scoped_nodes(node, scope=""):
    """(qualified name of the enclosing function or class, "" at module level,
    node) for every node below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        yield scope, child
        yield from _scoped_nodes(child, scope)


def _scoped_reads(node):
    """(scope as in _scoped_nodes, name read) for every bare name and
    attribute read below node."""
    for scope, child in _scoped_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield scope, child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield scope, child.attr


def test_each_rule_is_read_only_by_its_owner():
    reads = [read for read in _attribute_reads() if read[1] in OWNERS]
    assert [read for read in reads if read[0] != OWNERS[read[1]]] == []
    # the owners do read every one of them, so the check above is not vacuous
    assert {attr for _, attr, _ in reads} == set(OWNERS)


def test_precedence_is_read_only_by_the_query_constructor():
    """The precedence rule spans a query's invocations, and only
    QuerySpec.__init__ reads their produces and reads: it checks that each
    attribute is produced once and before its readers, and derives the
    dependency pairs that every check and planner reads.  Besides it, only
    Invocation.__init__, which rejects an invocation that reads what it
    produces, and the loader's _invocation_from_doc, which builds the two
    sets of one invocation and checks its predicate's attributes against
    them, name them.  A second copy of the rule, say back in the loader's
    query or scenario step, or in a planner, fails here."""
    users = {(name, scope) for name, tree in _package_trees()
             for scope, read in _scoped_reads(tree) if read in ("produces", "reads")}
    assert users == {("model.py", "QuerySpec.__init__"), ("model.py", "Invocation.__init__"),
                     ("model.py", "_invocation_from_doc")}


def test_the_operator_vocabulary_is_read_only_by_the_analyzer():
    """OperatorShape's constructor checks a shape's kind and operand type,
    and the loader reports its FieldError at the document path.  A second
    copy of the check, say back in the loader, fails here."""
    users = {(name, read) for name, tree in _package_trees()
             for _, read in _scoped_reads(tree) if read in VOCABULARY}
    assert {name for name, _ in users} == {"analyzer.py"}
    assert {read for _, read in users} == VOCABULARY


def test_only_the_emulator_entries_validate_schedules():
    """The planners' schedules are legal by construction and their event loop
    checks nothing; a schedule from outside (simulate --schedule included)
    goes through execute_schedule or analytic_total, which validate it."""
    users = {(name, scope) for name, tree in _package_trees()
             for scope, read in _scoped_reads(tree) if read == "validate_schedule"}
    assert users == {("emulator.py", "execute_schedule"), ("emulator.py", "analytic_total")}


def test_stage_costs_are_read_only_by_the_event_loop_and_the_closed_form():
    """The cost of one query in one order is worked out in
    costmodel.stage_terms, and for a scale sweep's points in
    costmodel.scaled_stage_terms from costmodel.term_lookup, which
    test_costmodel holds to stage_terms bit for bit: outside costmodel, the
    stage functions are read only for the load of a prefetch, by the event
    loop and the closed form's table, and the terms only by the emulator's
    entries, by candidate_evaluator for the four candidates and by
    _order_choices for optimal; the look-up, once per pair, only by
    candidate_evaluator on the scale axis, and the build of a scale point,
    one scaled_stage_terms call for all its pairs, only by its evaluate
    (a nested function, so scoped as candidate_evaluator.evaluate).  The
    closed form reads each order once, into a summary, in one table of a
    query over its orders and arriving states,
    emulator._closed_form_table, which only analytic_total and the
    optimizer's exact table, _cost_to_go, read; the optimizer reads no
    load.  A second copy of the loop's body, of the table or of a stage
    cost, say in a planner, fails here."""
    users: dict[str, set] = {}
    for name, tree in _package_trees():
        if name != "costmodel.py":
            for scope, read in _scoped_reads(tree):
                if read in STAGE_COSTS | {"stage_terms", "term_lookup", "scaled_stage_terms",
                                          "_closed_form_table"}:
                    users.setdefault(read, set()).add((name, scope))
    assert users == {
        "reconfig_time": {("emulator.py", "_run_queries"), ("emulator.py", "_closed_form_table")},
        "stage_terms": {("emulator.py", "execute_schedule"), ("emulator.py", "analytic_total"),
                        ("optimizer.py", "candidate_evaluator"),
                        ("optimizer.py", "_order_choices")},
        "term_lookup": {("optimizer.py", "candidate_evaluator")},
        "scaled_stage_terms": {("optimizer.py", "candidate_evaluator.evaluate")},
        "_closed_form_table": {("emulator.py", "analytic_total"),
                               ("optimizer.py", "_cost_to_go")},
    }


def test_residency_is_decided_only_by_the_timing_models():
    """A load costs nothing when its module already owns the region, and only
    the event loop and the closed form's table decide that: reconfig_time is
    the load time alone, and nothing else compares anything with the loaded
    module.  A second copy of the rule, say back in reconfig_time or in a
    planner, fails here."""
    def names_loaded(operand):
        return ((isinstance(operand, ast.Name) and operand.id == "loaded")
                or (isinstance(operand, ast.Attribute) and operand.attr == "loaded"))

    users = {(name, scope) for name, tree in _package_trees()
             for scope, node in _scoped_nodes(tree)
             if isinstance(node, ast.Compare)
             and any(names_loaded(operand) for operand in (node.left, *node.comparators))}
    assert users == {("emulator.py", "_run_queries"), ("emulator.py", "_closed_form_table")}


def test_number_ranges_are_stated_only_by_finite_number():
    """Every constructor, the loader's scale factor and the sweeps check a
    number's finiteness and sign through record.finite_number, so no other
    string, an f-string's parts and docstrings included, holds one of its
    messages.  The loader's _number alone says "must be finite" of an
    integer beyond the float range, which no float can hold.  A second
    copy of the rule, say back in a constructor or in SweepSpec, fails
    here."""
    users = {(name, scope, fragment) for name, tree in _package_trees()
             for scope, node in _scoped_nodes(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for fragment in RANGE_MESSAGES if fragment in node.value}
    assert users == {("record.py", "finite_number", fragment) for fragment in RANGE_MESSAGES
                     } | {("model.py", "_number", "must be finite, got")}


def test_the_total_bound_is_checked_only_where_scenarios_and_gap_sweeps_are_built():
    """Scenario's constructor checks the bound on the total, so a loaded
    scenario, a copy through replace and a sweep's scaled copy all meet it;
    only a gap sweep, which makes no copy, reads it besides.  A second
    call, say back in the loader, fails here."""
    users = {(name, scope) for name, tree in _package_trees()
             for scope, read in _scoped_reads(tree) if read == "first_unbounded_query"}
    assert users == {("model.py", "Scenario.__init__"), ("harness.py", "run_sweep")}


def test_scenario_wide_messages_are_written_once():
    """The references, the bound and the rebase of the volumes each raise
    their message in one place, an f-string's parts and docstrings
    included, so the loader and the sweeps report the owner's error rather
    than a copy of it.  A second copy, say back in the loader's query step,
    fails here."""
    users = sorted((fragment, name, scope) for name, tree in _package_trees()
                   for scope, node in _scoped_nodes(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   for fragment in SCENARIO_MESSAGES if fragment in node.value)
    assert users == sorted((fragment, *owner) for fragment, owner in SCENARIO_MESSAGES.items())
