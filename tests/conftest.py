import json
import random

import pytest

from reconfig_sim import harness, model


@pytest.fixture
def seq2():
    return harness.load_bundled("seq2")


@pytest.fixture
def seq2_small():
    return harness.load_bundled("seq2_small")


@pytest.fixture
def seq2_doc():
    """The canonical two-query document as a mutable dict, for negative tests."""
    return json.loads(harness.bundled_text("seq2"))


@pytest.fixture(scope="session")
def corpus():
    return [(name, harness.load_bundled(name)) for name in harness.bundled_names()]


def make_random_scenario(rng: random.Random, n_queries: int) -> model.Scenario:
    """A small random scenario; every module filters on the same int column,
    so any invocation order is legal and any module can serve any invocation."""
    n_modules = rng.randint(2, 3)
    library = []
    for j in range(n_modules):
        entry = {
            "id": f"m{j}",
            "supported_ops": [{"kind": "compare_gt", "operand_type": "int32"}],
            "proc_rate": round(rng.uniform(0.5, 4.0), 3),
        }
        if rng.random() < 0.3:
            entry["reconfig_ms"] = round(rng.uniform(0.0, 25.0), 3)
        library.append(entry)
    tables = [{"id": f"t{i}", "volume": round(rng.uniform(0.0, 100.0), 3)}
              for i in range(n_queries)]
    sequence = []
    for i in range(n_queries):
        invocations = [
            {
                "accelerator": f"m{rng.randrange(n_modules)}",
                "predicate": f"col > {rng.randrange(1000)}",
                "selectivity": round(rng.uniform(0.0, 1.0), 4),
                "reads": ["col"],
            }
            for _ in range(rng.randint(1, 3))
        ]
        q = {"id": f"Q{i}", "table": f"t{i}", "invocations": invocations}
        if i < n_queries - 1:
            q["gap_after_ms"] = round(rng.uniform(0.0, 40.0), 3)
        sequence.append(q)
    doc = {
        "rpu": {
            "storage_rate": round(rng.uniform(0.5, 3.0), 3),
            "network_rate": round(rng.uniform(0.1, 1.0), 3),
            "default_reconfig_ms": round(rng.uniform(0.0, 30.0), 3),
            "pr_region_count": 1,
        },
        "tables": tables,
        "library": library,
        "sequence": sequence,
    }
    return model.load_scenario(json.dumps(doc))


@pytest.fixture(scope="session")
def random_scenario():
    return make_random_scenario


def make_chained_scenario(rng: random.Random, n_queries: int) -> model.Scenario:
    """Queries of up to five invocations where later invocations read derived
    attributes of one or more earlier ones, sometimes two from one producer."""
    sequence = []
    for i in range(n_queries):
        invocations, derived = [], []
        for k in range(rng.randint(1, 5)):
            reads = ["col"] + rng.sample(derived, rng.randint(0, min(3, len(derived))))
            inv = {"accelerator": "m", "predicate": f"{rng.choice(reads)} > {rng.randrange(100)}",
                   "selectivity": round(rng.uniform(0.0, 1.0), 3), "reads": reads}
            if rng.random() < 0.6:
                inv["produces"] = [f"d{k}", f"e{k}"][:rng.randint(1, 2)]
                derived += inv["produces"]
            invocations.append(inv)
        sequence.append({"id": f"Q{i}", "table": "t", "invocations": invocations})
    doc = {
        "rpu": {"storage_rate": 1.0, "network_rate": 0.5, "default_reconfig_ms": 5.0,
                "pr_region_count": 1},
        "tables": [{"id": "t", "volume": 10.0}],
        "library": [{"id": "m", "proc_rate": 2.0,
                     "supported_ops": [{"kind": "compare_gt", "operand_type": "int32"}]}],
        "sequence": sequence,
    }
    return model.load_scenario(json.dumps(doc))


@pytest.fixture(scope="session")
def chained_scenario():
    return make_chained_scenario
