"""Each rule of the model has one owner.  Stage costs are made of the device
and module rates and load times, and only costmodel reads those; which
invocation orders are legal follows from produces and reads, and only model
reads those (it derives QuerySpec.dependencies from them)."""
import ast
from pathlib import Path

import reconfig_sim

OWNERS = {
    "storage_rate": "costmodel.py",
    "network_rate": "costmodel.py",
    "proc_rate": "costmodel.py",
    "reconfig_ms": "costmodel.py",
    "default_reconfig_ms": "costmodel.py",
    "produces": "model.py",
    "reads": "model.py",
}


def _attribute_reads():
    """(file name, attribute, line) for every attribute read in the package."""
    for path in sorted(Path(reconfig_sim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield path.name, node.attr, node.lineno


def test_each_rule_is_read_only_by_its_owner():
    reads = [read for read in _attribute_reads() if read[1] in OWNERS]
    assert [read for read in reads if read[0] != OWNERS[read[1]]] == []
    # the owners do read every one of them, so the check above is not vacuous
    assert {attr for _, attr, _ in reads} == set(OWNERS)
