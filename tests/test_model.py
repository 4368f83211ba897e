"""Scenario validation, feasibility accounting and the JSON schema."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehic.errors import InvalidInputError, ShapeError
from ehic.model import (DataProfile, HarvestProfile, Scenario, TimeGrid, User,
                        cumulative_departure, feasibility_report,
                        scenario_from_dict, scenario_to_dict,
                        validate_scenario)
from ehic.rates import ChannelParams, Region, build_rate_model

from helpers import two_user_scenario


def _raw(e1, e2, emax, n=None, tau=1.0):
    users = (User(HarvestProfile(np.asarray(e1, float), emax),
                  DataProfile.infinite()),
             User(HarvestProfile(np.asarray(e2, float), emax),
                  DataProfile.infinite()))
    return Scenario(TimeGrid(n or len(e1), tau), users, ChannelParams(0.9, 2.0))


class TestValidate:
    def test_truncates_oversized_arrival(self):
        scen = validate_scenario(_raw([12.0, 3.0], [0.0, 0.0], 10.0))
        assert scen.users[0].harvest.arrivals.tolist() == [10.0, 3.0]

    def test_negative_energy_rejected(self):
        with pytest.raises(InvalidInputError):
            _raw([-1.0, 0.0], [0.0, 0.0], 10.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            validate_scenario(_raw([1.0, 2.0], [0.0, 0.0], 10.0, n=3))

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            TimeGrid(0, 1.0)
        with pytest.raises(InvalidInputError):
            TimeGrid(3, 0.0)
        with pytest.raises(InvalidInputError):
            HarvestProfile(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("make", [
        lambda: HarvestProfile([1.0, math.nan, 1.0], 2.0),
        lambda: HarvestProfile([1.0, 1.0, 1.0], math.nan),
        lambda: HarvestProfile([1.0, math.inf, 1.0], math.inf),
        lambda: HarvestProfile([1.0, 1.0, 1.0], math.inf),
        lambda: HarvestProfile([1.0, -math.inf], 2.0),
        lambda: DataProfile([0.5, math.nan]),
        lambda: DataProfile([0.5, math.inf]),
    ], ids=["arrival-nan", "capacity-nan", "arrival-and-capacity-inf",
            "capacity-inf", "arrival-minus-inf", "data-nan", "data-inf"])
    def test_non_finite_profile_rejected(self, make):
        # a NaN passes a plain sign check (nan < 0 is False)
        with pytest.raises(InvalidInputError):
            make()

    @pytest.mark.parametrize("capacity", [None, "5", "x", [2.0]])
    def test_non_numeric_capacity_rejected(self, capacity):
        # as TimeGrid does, not with the TypeError of math.isfinite
        with pytest.raises(InvalidInputError):
            HarvestProfile(np.array([1.0]), capacity)

    @pytest.mark.parametrize("n", [float("nan"), float("inf"),
                                   float("-inf"), "x", "3", None, 2.5, -1])
    def test_bad_slot_count_rejected(self, n):
        with pytest.raises(InvalidInputError):
            TimeGrid(n, 1.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"),
                                     float("-inf"), "x", None, -1.0])
    def test_bad_slot_duration_rejected(self, tau):
        with pytest.raises(InvalidInputError):
            TimeGrid(3, tau)

    def test_idempotent(self):
        scen = validate_scenario(_raw([12.0, 3.0], [5.0, 0.0], 10.0))
        again = validate_scenario(scen)
        for j in range(2):
            assert np.array_equal(again.users[j].harvest.arrivals,
                                  scen.users[j].harvest.arrivals)


class TestEnergyBounds:
    def test_floor_never_above_ceiling_on_fig8(self):
        # a full-battery arrival can round cum_e[n+1] - capacity an ulp
        # above cum_e[n]: unclipped, fig8 seeds 11, 14 and 24 (users 1, 2
        # and 2; slots 7, 11 and 17) get a floor above the ceiling
        from ehic.cli import (FIG8_CHANNEL, FIG8_EMAX, FIG8_MEAN_INTERARRIVAL,
                              FIG8_SLOTS, gen_scenario)

        full = 0
        for seed in range(80):
            scen = gen_scenario(FIG8_SLOTS, 1.0, FIG8_EMAX,
                                FIG8_MEAN_INTERARRIVAL, seed, *FIG8_CHANNEL)
            for user in scen.users:
                c = user.harvest.corridor
                assert np.all(c.lower <= c.upper)
                full += int(np.sum(c.lower == c.upper))
        assert full >= 3

    def test_clipped_floor_meets_the_ceiling(self):
        # the arrival of slot 2 fills the battery of 0.2, so slot 1 must
        # spend its whole arrival: the floor there is the ceiling, 0.1,
        # where the unclipped (0.1 + 0.2) - 0.2 rounds above it
        harvest = HarvestProfile(np.array([0.1, 0.2, 0.0]), 0.2)
        lower, upper = harvest.corridor.lower, harvest.corridor.upper
        assert (0.1 + 0.2) - 0.2 > 0.1
        assert lower.tolist() == [0.1, (0.1 + 0.2) - 0.2, 0.0]
        assert upper.tolist() == [0.1, 0.1 + 0.2, 0.1 + 0.2]

    def test_record_is_built_once_and_read_only(self):
        harvest = HarvestProfile(np.array([3.0, 0.0, 2.0, 1.0]), 4.0)
        c = harvest.corridor
        assert harvest.corridor is c
        arrays = [name for name, value in vars(c).items()
                  if isinstance(value, np.ndarray)]
        assert sorted(arrays) == ["floor", "lower", "lower_rows",
                                  "raw_floor", "upper", "upper_rows"]
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(c, name)[0] = 0
        assert c.raw_floor[-1] == -math.inf
        assert c.raw_floor[:-1].tolist() == [-1.0, 1.0, 2.0]
        assert c.lower.tolist() == [0.0, 1.0, 2.0, 0.0]
        assert c.floor.tolist() == [0.0, 1.0, 2.0, 2.0]


class TestFeasibilityReport:
    def test_energy_causality_violation(self):
        scen = two_user_scenario([1.0, 0.0], [0.0, 0.0], 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        rep = feasibility_report([[0.6, 0.5], [0.0, 0.0]], scen, rm)
        assert rep.energy_causality.magnitude == pytest.approx(0.1)
        assert rep.energy_causality.slot == 1 and rep.energy_causality.user == 0
        assert not rep.feasible

    def test_battery_overflow_violation(self):
        scen = two_user_scenario([1.0, 1.0], [0.0, 0.0], 1.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 1.0, 1.0)
        rep = feasibility_report([[0.0, 1.0], [0.0, 0.0]], scen, rm)
        assert rep.battery_capacity.magnitude == pytest.approx(1.0)
        assert rep.battery_capacity.slot == 0

    def test_data_violation_on_linear_walkthrough(self):
        # placing the harvests directly as powers sends bits before any data
        # has arrived in slot 1.  Very strong region: user 1's rate is
        # (1/2)ln(1 + p), so the bits sent through slots 1-5 are
        # ln 2/2, ln 2/2, ln 2, ln 2 + ln 1.5/2, the same, against data
        # 0, 1.5, 1.5, 1.7, 2.7: only slot 1 violates, by ln 2/2
        scen = two_user_scenario([1, 0, 1, 0.5, 0], np.zeros(5), 1.0, 50.0,
                                 50.0, b1=[0, 1.5, 0, 0.2, 1])
        rm = build_rate_model(50.0, 50.0, 1.0, 1.0)
        assert rm.region is Region.VERY_STRONG
        policy = np.vstack([scen.users[0].harvest.arrivals, np.zeros(5)])
        rep = feasibility_report(policy, scen, rm)
        assert rep.data_causality.magnitude == pytest.approx(0.5 * math.log(2),
                                                             rel=1e-12)
        assert rep.data_causality.slot == 0 and rep.data_causality.user == 0
        assert rep.energy_causality.magnitude == 0.0

    def test_shape_mismatch(self):
        scen = two_user_scenario([1.0, 0.0], [0.0, 0.0], 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        with pytest.raises(ShapeError):
            feasibility_report(np.zeros((2, 3)), scen, rm)


class TestCumulativeDeparture:
    def test_zero_policy(self):
        scen = two_user_scenario([1.0, 1.0], [1.0, 1.0], 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        curve = cumulative_departure(np.zeros((2, 2)), rm, scen.grid)
        assert np.array_equal(curve, np.zeros(2))

    def test_single_slot_hand_value(self):
        scen = two_user_scenario([3.0], [0.0], 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        curve = cumulative_departure([[3.0], [0.0]], rm, scen.grid)
        assert curve[0] == pytest.approx(0.5 * np.log(4.0))
        assert curve[0] == pytest.approx(0.6931, abs=5e-5)

    def test_nondecreasing_for_random_policies(self):
        rng = np.random.default_rng(4)
        scen = two_user_scenario(np.ones(6), np.ones(6), 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        for _ in range(20):
            policy = rng.uniform(0, 3, (2, 6))
            curve = cumulative_departure(policy, rm, scen.grid)
            assert np.all(np.diff(curve) >= -1e-15)

    def test_optimal_curve_dominates_naive_at_deadline(self):
        from ehic.cli import gen_scenario
        from ehic.iterative import iterate_offline
        from ehic.online import naive_policy
        scen = gen_scenario(20, 1.0, 10.0, 5.0, 2, 0.7, 5.0)
        rm = build_rate_model(0.7, 5.0, 10.0, 10.0)
        p_opt, _ = iterate_offline(scen, rm)
        opt_curve = cumulative_departure(p_opt, rm, scen.grid)
        naive_curve = cumulative_departure(naive_policy(scen), rm, scen.grid)
        assert opt_curve[-1] > naive_curve[-1]


class TestScenarioSchema:
    def test_round_trip(self):
        scen = two_user_scenario([1.0, 0.5], [0.0, 2.0], 3.0, 0.9, 2.0,
                                 b1=[0.2, 0.4])
        doc = scenario_to_dict(scen)
        back, info = scenario_from_dict(doc)
        assert info == {}
        for j in range(2):
            assert np.array_equal(back.users[j].harvest.arrivals,
                                  scen.users[j].harvest.arrivals)
        assert back.users[1].data.is_infinite
        assert np.array_equal(back.users[0].data.arrivals,
                              scen.users[0].data.arrivals)

    def test_physical_channel_converts_units(self):
        doc = {
            "tau": 1.0, "N": 2,
            "users": [{"E": [5.0, 0.0], "Emax": 10.0, "B": "infinite"},
                      {"E": [10.0, 0.0], "Emax": 10.0, "B": "infinite"}],
            "channel": {"physical": {
                "h11_db": -100.0, "h22_db": -100.0, "h12_db": -101.55,
                "h21_db": -93.01, "noise_psd": 1e-19, "bandwidth": 1e6}},
        }
        scen, info = scenario_from_dict(doc)
        # 5 mJ at -100 dB over 1e-13 W noise -> 5 normalized units
        assert scen.users[0].harvest.arrivals[0] == pytest.approx(5.0)
        assert scen.users[0].harvest.capacity == pytest.approx(10.0)
        assert scen.channel.a == pytest.approx(0.70, abs=0.005)
        assert info["channel_uses_per_slot"] == pytest.approx(2e6)

    def test_missing_fields_rejected(self):
        with pytest.raises(InvalidInputError):
            scenario_from_dict({"tau": 1.0})
        with pytest.raises(InvalidInputError):
            scenario_from_dict({"tau": 1.0, "N": 1, "channel": {"a": 1},
                                "users": [{"E": [1], "Emax": 1}] * 2})

    def test_bad_backlog_marker_rejected(self):
        doc = {"tau": 1.0, "N": 1, "channel": {"a": 0.9, "b": 2.0},
               "users": [{"E": [1.0], "Emax": 1.0, "B": "lots"},
                         {"E": [1.0], "Emax": 1.0, "B": "infinite"}]}
        with pytest.raises(InvalidInputError):
            scenario_from_dict(doc)


# anything a JSON document can hold where a number is expected
_NUMBER = st.one_of(st.integers(-2, 4), st.integers(10 ** 400, 10 ** 401),
                    st.floats(allow_nan=True, allow_infinity=True))
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(st.one_of(_NUMBER, st.none(), st.text(max_size=1)),
                           max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 2),
                                  max_size=1))


def _slots(node):
    """(container, key) of every value inside a JSON-like tree."""
    keys = (list(node) if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    out = []
    for key in keys:
        out.append((node, key))
        out += _slots(node[key])
    return out


@st.composite
def _scenario_docs(draw):
    """A valid scenario document, broken in up to two places."""
    n = draw(st.integers(1, 3))
    vector = st.lists(st.floats(0.0, 12.0), min_size=n, max_size=n)

    def user():
        return {"E": draw(vector), "Emax": draw(st.floats(0.5, 10.0)),
                "B": draw(st.one_of(st.just("infinite"), vector))}

    if draw(st.booleans()):
        channel = {"a": draw(st.floats(0.0, 3.0)),
                   "b": draw(st.floats(0.0, 3.0))}
    else:
        channel = {"physical": {
            "h11_db": draw(st.floats(-200.0, 0.0)),
            "h22_db": draw(st.floats(-200.0, 0.0)),
            "h12_db": draw(st.floats(-200.0, 0.0)),
            "h21_db": draw(st.floats(-200.0, 0.0)),
            "noise_psd": 1e-19, "bandwidth": 1e6}}
    box = {"doc": {"tau": draw(st.floats(0.1, 2.0)), "N": n,
                   "users": [user(), user()], "channel": channel}}
    for _ in range(draw(st.integers(0, 2))):
        parent, key = draw(st.sampled_from(_slots(box)))
        if parent is box or draw(st.booleans()):
            parent[key] = draw(st.one_of(_NUMBER, _JUNK))
        else:
            del parent[key]
    return box["doc"]


class TestScenarioDocumentProperty:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_scenario_docs())
    def test_parses_to_valid_scenario_or_raises_documented_error(self, doc):
        try:
            scen, _ = scenario_from_dict(doc)
        except (InvalidInputError, ShapeError):
            return
        n, tau = scen.grid.N, scen.grid.tau
        assert isinstance(n, int) and n >= 1
        assert math.isfinite(tau) and tau > 0
        assert all(math.isfinite(g) and g >= 0
                   for g in (scen.channel.a, scen.channel.b))
        for user in scen.users:
            cap, e = user.harvest.capacity, user.harvest.arrivals
            assert math.isfinite(cap) and cap > 0
            assert e.shape == (n,) and np.all(e >= 0) and np.all(e <= cap)
            if not user.data.is_infinite:
                b = user.data.arrivals
                assert b.shape == (n,) and np.all(np.isfinite(b))
                assert np.all(b >= 0)


@st.composite
def _harvests(draw):
    """Harvest profiles of 1-12 slots whose arrivals mix zeros, arrivals
    that fill the battery and anything in between."""
    n = draw(st.integers(1, 12))
    cap = draw(st.floats(0.1, 10.0))
    amount = st.one_of(st.just(0.0), st.just(cap), st.floats(0.0, cap))
    arrivals = draw(st.lists(amount, min_size=n, max_size=n))
    return HarvestProfile(np.array(arrivals), cap)


class TestOpenRows:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_harvests())
    def test_every_dropped_row_is_implied_by_a_kept_one(self, harvest):
        c = harvest.corridor
        lower, upper, up, low = c.lower, c.upper, c.upper_rows, c.lower_rows
        n = len(upper)
        assert up[-1] and not low[-1]
        for i in np.flatnonzero(~up):
            assert any(up[m] and upper[m] == upper[i]
                       for m in range(i + 1, n))
        for i in np.flatnonzero(~low):
            assert lower[i] == 0.0 or any(low[k] and lower[k] >= lower[i]
                                          for k in range(i))

    @settings(max_examples=200, deadline=None, database=None)
    @given(_harvests(), st.integers(0, 2**32 - 1))
    def test_rows_that_meet_the_kept_rows_meet_all(self, harvest, seed):
        # rows near the corridor: feasible cumulative consumptions whose
        # increments are perturbed in a few slots, floored at 0
        c = harvest.corridor
        lower, upper, up, low = c.lower, c.upper, c.upper_rows, c.lower_rows
        rng = np.random.default_rng(seed)
        n = len(upper)
        floor = np.maximum.accumulate(lower)
        for _ in range(50):
            s = floor + rng.uniform(0.0, 1.0, n) * (upper - floor)
            p = np.diff(np.maximum.accumulate(s), prepend=0.0)
            noise = rng.normal(0.0, harvest.capacity / 4.0, n)
            p = np.maximum(p + noise * (rng.random(n) < 0.3), 0.0)
            s = np.cumsum(p)
            if np.all(s[up] <= upper[up]) and np.all(s[low] >= lower[low]):
                assert np.all(s <= upper)
                assert np.all(s[:-1] >= lower[:-1])
