"""The behaviour table: every path reads ``BEHAVIOURS`` and its node classes' parameters.

A spec accepts exactly the parameters a behaviour declares, and a mix entry
or a scenario cell exactly its fixed ones, each with a value of its default's
type; a node gets each parameter's one default unless a spec overrides it; and
a behaviour's value enters the validity check exactly when it has a
``poison_value``.
"""

import pytest

from repro.adversary.mix import REST, AdversaryMix, MixEntry
from repro.adversary.nodes import BEHAVIOURS, EquivocatingPdNode
from repro.adversary.spec import FaultSpec
from repro.analysis import harness
from repro.core.config import ProtocolMode
from repro.crypto.signatures import KeyRegistry
from repro.experiments.scenario import GraphSpec, Scenario
from repro.runtime.sim import build_sim_runtime
from repro.workloads.builders import scenario_run_config

#: Processes 1-8, process 4 faulty, f = 1.
FIG4B = GraphSpec.figure("fig4b")

#: Every parameter of the table: the value its default takes on fig4b, and an override.
PARAMETERS = {
    ("crash", "at"): (25.0, 3.0),
    ("lying_pd", "claimed_pd"): (frozenset(range(1, 9)), frozenset({1, 2})),
    ("equivocating_pd", "claimed_pd"): (frozenset({1, 2, 3, 4}), frozenset({1})),
    ("equivocating_pd", "alternate_pd"): (frozenset({5, 6, 7, 8}), frozenset({2})),
    ("wrong_value", "poison_value"): ("poisoned-value", "zz"),
    ("equivocating_leader", "poison_value"): ("poisoned-value", "zz"),
}

POISONERS = sorted(behaviour for behaviour, name in PARAMETERS if name == "poison_value")


def cell(behaviour, **overrides):
    """A fig4b cell whose faulty process plays ``behaviour``, through a mix when it sets parameters."""
    if not overrides:
        return Scenario(name="table", graph=FIG4B, mode=ProtocolMode.BFT_CUP, behaviour=behaviour)
    entry = MixEntry(behaviour, count=REST, params=tuple(overrides.items()))
    return Scenario(name="table", graph=FIG4B, mode=ProtocolMode.BFT_CUP, mix=AdversaryMix((entry,)))


def faulty_node(config):
    runtime = build_sim_runtime(max_time=config.horizon, faulty=frozenset(config.faulty))
    nodes = harness.build_protocol_nodes(config, runtime, KeyRegistry(seed=0))
    (process,) = config.faulty
    return nodes[process]


def test_the_parameter_list_covers_the_table():
    declared = {
        (behaviour, name) for behaviour, node in BEHAVIOURS.items() for name in node.defaults(())
    }
    assert set(PARAMETERS) == declared


def test_a_mix_sets_only_the_fixed_parameters():
    fixed = {(behaviour, name) for behaviour, node in BEHAVIOURS.items() for name in node.PARAMS}
    assert fixed == {
        ("crash", "at"),
        ("wrong_value", "poison_value"),
        ("equivocating_leader", "poison_value"),
    }


@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
def test_a_scenario_cell_builds_the_behaviours_class(behaviour):
    config = scenario_run_config(cell(behaviour))
    assert [spec.behaviour for spec in config.faulty.values()] == [behaviour]
    assert type(faulty_node(config)) is BEHAVIOURS[behaviour]


@pytest.mark.parametrize(("behaviour", "name"), sorted(PARAMETERS))
def test_every_parameter_default_and_override_reaches_the_node(behaviour, name):
    default, override = PARAMETERS[behaviour, name]
    config = scenario_run_config(cell(behaviour))
    assert getattr(faulty_node(config), name) == default
    config.faulty = {process: FaultSpec(behaviour, **{name: override}) for process in config.faulty}
    assert getattr(faulty_node(config), name) == override


def test_equivocating_halves_of_a_single_process_are_equal():
    assert EquivocatingPdNode.defaults({1}) == {
        "claimed_pd": frozenset({1}),
        "alternate_pd": frozenset({1}),
    }


@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
@pytest.mark.parametrize("kind", ["misspelled", "irrelevant"])
def test_an_undeclared_parameter_is_rejected_on_every_path(behaviour, kind):
    own = BEHAVIOURS[behaviour].defaults(())
    if kind == "misspelled":
        name = "crash_at"
    else:
        name = next(other for _, other in sorted(PARAMETERS) if other not in own)
    with pytest.raises(ValueError, match="accepts no parameter"):
        FaultSpec(behaviour, **{name: 1})
    with pytest.raises(ValueError, match="accepts no parameter"):
        MixEntry(behaviour, params=((name, 1),))
    payload = Scenario(name="table", graph=FIG4B, mix=AdversaryMix.of(**{behaviour: REST})).to_dict()
    payload["mix"]["entries"][0]["params"] = {name: 1}
    with pytest.raises(ValueError, match="accepts no parameter"):
        Scenario.from_dict(payload)


@pytest.mark.parametrize(("behaviour", "name"), sorted(PARAMETERS))
def test_a_value_not_of_the_defaults_type_is_rejected_by_a_spec_and_a_mix_entry(behaviour, name):
    default, _ = PARAMETERS[behaviour, name]
    for value in (None, True, 7, "12", frozenset({1})):
        if type(value) is type(default) or (type(default) is float and type(value) is int):
            continue
        with pytest.raises(ValueError, match="takes a"):
            FaultSpec(behaviour, **{name: value})
        # A mix entry sets no PD parameter at all; a fixed one only with its default's type.
        fixed = name in BEHAVIOURS[behaviour].PARAMS
        with pytest.raises(ValueError, match="takes a" if fixed else "in a mix entry"):
            MixEntry(behaviour, params=((name, value),))


def test_an_int_stands_for_a_float_default():
    assert FaultSpec("crash", at=3).params == (("at", 3),)
    assert MixEntry("crash", params=(("at", 3),)).params == (("at", 3),)


def test_an_unknown_behaviour_is_rejected_on_every_path():
    with pytest.raises(ValueError, match="unknown behaviour"):
        FaultSpec("teleport")
    with pytest.raises(ValueError, match="unknown behaviour"):
        MixEntry("teleport")
    with pytest.raises(ValueError, match="unknown behaviour"):
        Scenario(name="table", graph=FIG4B, behaviour="teleport")


@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
def test_the_poison_value_enters_validity_iff_the_behaviour_has_one(behaviour, monkeypatch):
    proposed = []
    check = harness.check_properties

    def spy(**kwargs):
        proposed.append({k: v for k, v in kwargs["proposals"].items() if str(k).startswith("poison::")})
        return check(**kwargs)

    monkeypatch.setattr(harness, "check_properties", spy)
    harness.run_consensus(scenario_run_config(cell(behaviour)))
    if behaviour in POISONERS:
        harness.run_consensus(scenario_run_config(cell(behaviour, poison_value="zz")))
        assert proposed == [{"poison::4": "poisoned-value"}, {"poison::4": "zz"}]
    else:
        assert proposed == [{}]
