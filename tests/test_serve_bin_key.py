"""One key for every serve answer: the link's reference-SNR bin.

Every recommend path — the policy lookup, the bin-keyed sweep-table LRU,
the fleet batch — must return the bin-center answer: the configuration
:func:`solve_epsilon_constraint` picks on a grid evaluated at the center
of the link's SNR bin at PA level 31, stamped with the link's own
distance. The differential test below drives all of them with random
links (distance and SNR, every CC2420 reference level, on and off the
policy axis) and random objectives and constraints.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.environment import HALLWAY_2012
from repro.core.optimization import (
    Constraint,
    ModelEvaluator,
    TuningGrid,
    evaluate_grid_columns,
    snr_map_from_reference,
    solve_epsilon_constraint,
)
from repro.errors import InfeasibleError
from repro.radio import cc2420
from repro.serve import (
    OBJECTIVES,
    FleetRecommendRequest,
    LinkSpec,
    Oracle,
    RecommendRequest,
    TIER_MISS,
    TIER_POLICY,
)

SMALL_GRID = TuningGrid(
    ptx_levels=(3, 15, 31),
    payload_values_bytes=(20, 65, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1, 30),
)
QUANTUM_DB = 0.5
AXIS_DB = (0.0, 20.0)


def bin_center_answer(grid, link, objective, constraints, quantum_db):
    """The reference: a fresh solve at the center of the link's bin."""
    snr_db = link.snr_map(HALLWAY_2012)[31]
    center_db = float(np.round(snr_db / quantum_db)) * quantum_db
    evaluator = ModelEvaluator(snr_by_level=snr_map_from_reference(center_db))
    grid_eval = evaluate_grid_columns(evaluator, grid, link.grid_distance_m())
    return solve_epsilon_constraint(grid_eval, objective, constraints)


def outcome(answer):
    """An answer or the message of the InfeasibleError it raised."""
    try:
        return answer()
    except InfeasibleError as exc:
        return ("infeasible", str(exc))


class TestReferenceLevel:
    """A link given at ``reference_level`` 3 is shifted to level 31 first.

    5 dB at level 3 is 30 dB at level 31: a strong link that needs little
    power (PA level 7 on the default grid), not the weak 5 dB link at
    level 31 (PA level 27).
    """

    LINK = {"snr_db": 5.0, "reference_level": 3}

    @pytest.mark.parametrize(
        "constraints",
        [(), (Constraint(objective="delay", upper_bound=30.0),)],
        ids=["unconstrained", "constrained"],
    )
    def test_policy_and_table_oracles_agree_with_the_solver(
        self, constraints
    ):
        grid = TuningGrid()
        request = RecommendRequest(
            link=LinkSpec(**self.LINK), constraints=constraints
        )
        with_policy = Oracle(grid=grid, policy=True).recommend(request)
        without = Oracle(grid=grid, policy=False).recommend(request)
        expected = bin_center_answer(
            grid, request.link, "energy", constraints, 0.25
        )
        assert with_policy.evaluation == without.evaluation == expected
        if not constraints:
            assert with_policy.cache_tier == TIER_POLICY
            assert expected.config.ptx_level == 7
        else:
            assert with_policy.cache_tier == TIER_MISS

    def test_reference_snr_shifts_to_level_31(self):
        link = LinkSpec(**self.LINK)
        assert link.reference_snr_db(HALLWAY_2012) == 5.0 + (
            cc2420.output_power_dbm(31) - cc2420.output_power_dbm(3)
        )
        assert link.reference_snr_db(HALLWAY_2012) == (
            link.snr_map(HALLWAY_2012)[31]
        )


CONSTRAINT_BOUNDS = {
    "energy": (0.5, 2.0, 8.0),
    "goodput": (-200.0, -60.0, -10.0),
    "delay": (5.0, 30.0, 120.0),
    "loss": (0.001, 0.01, 0.2),
    "loss_radio": (0.001, 0.05),
    "rho": (0.2, 1.0),
}

links = st.one_of(
    st.builds(
        LinkSpec,
        distance_m=st.floats(min_value=1.0, max_value=60.0),
    ),
    st.builds(
        LinkSpec,
        snr_db=st.floats(min_value=-15.0, max_value=35.0),
        reference_level=st.sampled_from(cc2420.PA_LEVELS),
    ),
)
constraints = st.lists(
    st.sampled_from(sorted(CONSTRAINT_BOUNDS)).flatmap(
        lambda name: st.builds(
            Constraint,
            objective=st.just(name),
            upper_bound=st.sampled_from(CONSTRAINT_BOUNDS[name]),
        )
    ),
    max_size=2,
).map(tuple)

POLICY_ORACLE = Oracle(
    grid=SMALL_GRID,
    lru_capacity=4,
    policy=True,
    snr_quantum_db=QUANTUM_DB,
    policy_snr_range_db=AXIS_DB,
)
TABLE_ORACLE = Oracle(
    grid=SMALL_GRID, lru_capacity=4, snr_quantum_db=QUANTUM_DB
)


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        links=st.lists(links, min_size=1, max_size=6),
        objective=st.sampled_from(OBJECTIVES),
        constraints=constraints,
    )
    def test_every_path_returns_the_bin_center_answer(
        self, links, objective, constraints
    ):
        fleet = POLICY_ORACLE.recommend_fleet(
            FleetRecommendRequest(
                links=tuple(links),
                objective=objective,
                constraints=constraints,
            )
        )
        for index, link in enumerate(links):
            request = RecommendRequest(
                link=link, objective=objective, constraints=constraints
            )
            expected = outcome(
                lambda: bin_center_answer(
                    SMALL_GRID, link, objective, constraints, QUANTUM_DB
                )
            )
            assert outcome(
                lambda: POLICY_ORACLE.recommend(request).evaluation
            ) == expected
            assert outcome(
                lambda: TABLE_ORACLE.recommend(request).evaluation
            ) == expected
            if fleet.errors[index] is not None:
                assert ("infeasible", fleet.errors[index]) == expected
            else:
                assert fleet.evaluations[index] == expected

    def test_fleet_work_grows_with_bins_not_links(self):
        oracle = Oracle(grid=SMALL_GRID, snr_quantum_db=QUANTUM_DB)
        links = tuple(
            LinkSpec(snr_db=10.0 + 0.01 * i) for i in range(20)
        ) + tuple(LinkSpec(snr_db=15.0 + 0.01 * i) for i in range(20))
        result = oracle.recommend_fleet(
            FleetRecommendRequest(
                links=links,
                constraints=(Constraint(objective="rho", upper_bound=1.0),),
            )
        )
        assert result.n_unique_links == 2
        lru = oracle.cache_info()["lru"]
        assert lru["lookups"] == 2
        assert oracle.cache_info()["table_builds"] == 2
        assert oracle.policy_info()["solver_solves"] == 2
        assert result.evaluations[0] is result.evaluations[19]
