import json

from hypothesis import settings
import pytest

from cuspcubes.diagram import AlternatingDiagram, pretzel_diagram, two_bridge_diagram

# Every property draws the same examples on every run; the per-test
# max_examples stays the budget.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def twist_sequences(total_max, n_max=None):
    """All valid twist sequences with crossing count at most total_max."""
    out = []

    def extend(prefix, remaining):
        n = len(prefix)
        if n >= 1 and (n_max is None or n < n_max):
            for last in range(2, remaining + 1):
                if n + 1 >= 2:
                    out.append(tuple(prefix) + (last,))
        if n_max is not None and n + 1 >= n_max:
            return
        for mid in range(1, remaining - 1):
            extend(prefix + [mid], remaining - mid)

    for first in range(2, total_max - 1):
        extend([first], total_max - first)
    return sorted(set(s for s in out if len(s) >= 2 and s[0] >= 2 and s[-1] >= 2
                      and (n_max is None or len(s) <= n_max)))


STANDARD_PD = {
    "trefoil": [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
    "hopf": [(1, 3, 2, 4), (3, 1, 4, 2)],
}


def diagram_corpus():
    """Named prime alternating diagrams used across the integration tests."""
    corpus = {name: AlternatingDiagram.from_pd(code) for name, code in STANDARD_PD.items()}
    for seq in ((2, 2), (3, 2), (2, 1, 2), (3, 3), (2, 2, 2), (4, 3), (2, 1, 1, 2), (3, 1, 2)):
        corpus["C" + "_".join(map(str, seq))] = two_bridge_diagram(seq).diagram
    corpus["pretzel_3_3_3"] = pretzel_diagram(3, 3, 3)
    corpus["pretzel_2_3_3"] = pretzel_diagram(2, 3, 3)
    corpus["pretzel_2_3_4"] = pretzel_diagram(2, 3, 4)
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return diagram_corpus()


@pytest.fixture(scope="session")
def pd_corpus_dir(tmp_path_factory):
    """Directory of PD-code JSON files regenerated from the corpus."""
    root = tmp_path_factory.mktemp("pd_corpus")
    for name, d in diagram_corpus().items():
        (root / f"{name}.json").write_text(json.dumps({"pd": [list(x) for x in d.pd_code()]}))
    return root
