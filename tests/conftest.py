import pytest
from hypothesis import settings

from convalg import (
    LatticeMap,
    RelationalStructure,
    Signature,
    make_topology,
    open_set_heyting,
)

# Every run draws the same Hypothesis examples, so two runs of the suite
# execute the same checks; per-test settings still set the example counts.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def wedge_topology():
    """Two petals glued at a common point: opens {}, {b}, {a b}, {b c}, {a b c}."""
    return make_topology({"a", "b", "c"}, [{"b"}, {"a", "b"}, {"b", "c"}])


@pytest.fixture(scope="session")
def wedge_lattice(wedge_topology):
    return open_set_heyting(wedge_topology)


@pytest.fixture(scope="session")
def four_point_structure():
    """Carrier x1..x4 with the one ternary relation of the worked example."""
    return RelationalStructure(
        ("x1", "x2", "x3", "x4"),
        Signature((("f", 2),)),
        {
            "f": {
                ("x1", "x1", "x1"),
                ("x2", "x2", "x3"),
                ("x1", "x3", "x4"),
                ("x3", "x2", "x4"),
            }
        },
    )


@pytest.fixture(scope="session")
def thirds_topology():
    return make_topology(("t1", "t2", "t3"), [{"t1"}, {"t2"}, {"t3"}])


@pytest.fixture(scope="session")
def thirds_lattice(thirds_topology):
    return open_set_heyting(thirds_topology)


@pytest.fixture(scope="session")
def thirds_args(four_point_structure, thirds_lattice):
    carrier = four_point_structure.carrier
    alpha1 = LatticeMap.from_values(
        carrier,
        thirds_lattice,
        {
            "x1": frozenset({"t1", "t2"}),
            "x2": frozenset({"t1", "t2"}),
            "x3": frozenset({"t2", "t3"}),
            "x4": frozenset({"t1", "t2", "t3"}),
        },
    )
    alpha2 = LatticeMap.from_values(
        carrier,
        thirds_lattice,
        {
            "x1": frozenset({"t2", "t3"}),
            "x2": frozenset({"t3"}),
            "x3": frozenset({"t1"}),
            "x4": frozenset({"t1", "t2"}),
        },
    )
    return alpha1, alpha2
