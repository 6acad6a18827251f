"""Fuzz tests for the deadlock validators: accept *exactly* the safe inputs.

``validate_hop_sequences`` and ``validate_dateline_shapes`` are the
construction-time deadlock-freedom proofs; a false *reject* turns a valid
configuration into a crash, but a false *accept* silently ships a
deadlock-prone VC schedule.  These tests therefore compare the validators
against independent reference implementations over seeded-random inputs and
assert agreement in both directions — every accepted input is monotone and
every monotone input is accepted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.deadlock import (
    BUFFER_CLASS_ORDER,
    validate_dateline_shapes,
    validate_hop_sequences,
    validate_updown_shapes,
)

LOCAL_VCS = 4
GLOBAL_VCS = 2
RING_VCS = 4
LINK_LEVELS = 3
UPDOWN_VCS = 2


# ------------------------------------------------------------------ references
def _reference_hop_classes(hops):
    """Independent re-derivation of the capped path-stage classes."""
    classes = []
    g = 0
    l_in_group = 0
    for kind in hops:
        if kind == "global":
            classes.append(("global", min(g, GLOBAL_VCS - 1)))
            g += 1
            l_in_group = 0
        else:
            l = min(l_in_group, 1)
            vc = l if g == 0 else 2 * g - 1 + l
            classes.append(("local", min(vc, LOCAL_VCS - 1)))
            l_in_group += 1
    return classes


def _reference_accepts_hops(hops) -> bool:
    ranks = [BUFFER_CLASS_ORDER.index(c) for c in _reference_hop_classes(hops)]
    return all(b > a for a, b in zip(ranks, ranks[1:]))


def _reference_accepts_shape(shape) -> bool:
    for leg, dim, crossed in shape:
        if leg < 0 or dim < 0 or crossed not in (0, 1):
            return False
        if 2 * leg + crossed >= RING_VCS:
            return False
    return all(b > a for a, b in zip(shape, shape[1:]))


def _validator_accepts_hops(hops) -> bool:
    try:
        validate_hop_sequences(
            [hops], local_vcs=LOCAL_VCS, global_vcs=GLOBAL_VCS
        )
    except ValueError:
        return False
    return True


def _validator_accepts_shape(shape) -> bool:
    try:
        validate_dateline_shapes([shape], ring_vcs=RING_VCS)
    except ValueError:
        return False
    return True


def _reference_accepts_updown(shape) -> bool:
    """Independent re-derivation of the up/down class-rank walk."""
    ranks = []
    for cls in shape:
        if not (isinstance(cls, tuple) and len(cls) == 2):
            return False
        direction, level = cls
        if direction not in (0, 1):
            return False
        if not 0 <= level < LINK_LEVELS:
            return False
        if direction >= UPDOWN_VCS:
            return False
        ranks.append(level if direction == 0 else 2 * LINK_LEVELS - 1 - level)
    return all(b > a for a, b in zip(ranks, ranks[1:]))


def _validator_accepts_updown(shape) -> bool:
    try:
        validate_updown_shapes(
            [shape], local_vcs=UPDOWN_VCS, link_levels=LINK_LEVELS
        )
    except ValueError:
        return False
    return True


# ----------------------------------------------------------------------- fuzz
class TestHopSequenceFuzz:
    def test_random_sequences_accepted_iff_monotone(self):
        rng = np.random.default_rng(2024)
        accepted = rejected = 0
        for _ in range(600):
            length = int(rng.integers(1, 8))
            hops = tuple(
                "global" if rng.integers(0, 2) else "local" for _ in range(length)
            )
            expected = _reference_accepts_hops(hops)
            assert _validator_accepts_hops(hops) == expected, hops
            accepted += expected
            rejected += not expected
        # The fuzz must actually exercise both outcomes.
        assert accepted > 50 and rejected > 50

    @pytest.mark.parametrize(
        "hops",
        [
            ("local", "local", "local"),        # L0 L1 L1: class repeats
            ("global", "global", "global"),     # G0 G1 G1: cap merges classes
            ("global", "local", "local", "local"),  # L1 L2 L2
            ("local", "global", "local", "global", "local", "global"),  # G1 G1
        ],
    )
    def test_known_false_accept_shapes_are_rejected(self, hops):
        """Sequences whose capped classes merge must be rejected — catching
        false accepts, not just false rejects."""
        assert not _validator_accepts_hops(hops)

    @pytest.mark.parametrize(
        "hops",
        [
            ("local",),
            ("local", "global", "local"),
            ("local", "global", "local", "local", "global", "local"),
        ],
    )
    def test_known_safe_shapes_are_accepted(self, hops):
        assert _validator_accepts_hops(hops)


class TestDatelineShapeFuzz:
    def test_random_shapes_accepted_iff_lexicographically_monotone(self):
        rng = np.random.default_rng(777)
        accepted = rejected = 0
        for _ in range(600):
            length = int(rng.integers(1, 7))
            shape = tuple(
                (int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                for _ in range(length)
            )
            expected = _reference_accepts_shape(shape)
            assert _validator_accepts_shape(shape) == expected, shape
            accepted += expected
            rejected += not expected
        assert accepted > 20 and rejected > 50

    def test_sorted_random_shapes_are_accepted(self):
        """Bias the fuzz towards the accept side: deduplicated sorted class
        sets are exactly the monotone shapes and must all pass."""
        rng = np.random.default_rng(31337)
        for _ in range(200):
            classes = {
                (int(rng.integers(0, 2)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 7)))
            }
            shape = tuple(sorted(classes))
            assert _validator_accepts_shape(shape), shape

    @pytest.mark.parametrize(
        "shape",
        [
            ((0, 0, 1), (0, 0, 0)),            # crossed falls inside a ring
            ((0, 1, 0), (0, 0, 0)),            # dimension order violated
            ((1, 0, 0), (0, 1, 0)),            # later leg before earlier leg
            ((0, 0, 0), (0, 0, 0)),            # class repeats (not strict)
        ],
    )
    def test_known_false_accepts_are_rejected(self, shape):
        assert not _validator_accepts_shape(shape)

    @pytest.mark.parametrize(
        "shape",
        [
            ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)),
            ((0, 0, 0), (1, 0, 0)),
        ],
    )
    def test_known_safe_shapes_are_accepted(self, shape):
        assert _validator_accepts_shape(shape)

    def test_malformed_classes_always_rejected(self):
        for shape in [
            ((0, 0, 2),),
            ((-1, 0, 0),),
            ((0, -2, 1),),
        ]:
            assert not _validator_accepts_shape(shape)

    def test_vc_budget_is_enforced_not_capped(self):
        """A class needing ring VC >= budget must raise: capping would merge
        it with a lower class and silently void the dateline argument."""
        assert not _validator_accepts_shape(((2, 0, 0),))  # VC 4 of 4
        try:
            validate_dateline_shapes([((2, 0, 0),)], ring_vcs=5)
        except ValueError:  # pragma: no cover - must not happen
            pytest.fail("shape within a larger budget must be accepted")


class TestUpdownShapeFuzz:
    """The up/down validator (fat tree) accepts exactly the monotone walks."""

    def test_random_shapes_accepted_iff_ranks_ascend(self):
        rng = np.random.default_rng(4242)
        accepted = rejected = 0
        for _ in range(600):
            length = int(rng.integers(1, 6))
            shape = tuple(
                (int(rng.integers(0, 2)), int(rng.integers(0, LINK_LEVELS)))
                for _ in range(length)
            )
            expected = _reference_accepts_updown(shape)
            assert _validator_accepts_updown(shape) == expected, shape
            accepted += expected
            rejected += not expected
        assert accepted > 50 and rejected > 50

    @pytest.mark.parametrize(
        "shape",
        [
            ((1, 0), (0, 0)),                  # climbing after the turn
            ((0, 0), (1, 0), (0, 1)),          # second turn up
            ((0, 0), (0, 0)),                  # class repeats (not strict)
            ((0, 1), (0, 0)),                  # descending up-leg levels
            ((1, 0), (1, 1)),                  # down leg climbing levels
        ],
    )
    def test_known_false_accepts_are_rejected(self, shape):
        """A walk that revisits or reorders classes could close a cycle in
        the channel dependency graph — it must be rejected."""
        assert not _validator_accepts_updown(shape)

    @pytest.mark.parametrize(
        "shape",
        [
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)),
            ((1, 2), (1, 1), (1, 0)),          # pure descent (Valiant leg 2)
        ],
    )
    def test_known_safe_shapes_are_accepted(self, shape):
        assert _validator_accepts_updown(shape)

    def test_malformed_classes_always_rejected(self):
        for shape in [
            ((0, 0, 0),),                      # wrong arity
            ((2, 0),),                         # direction neither up nor down
            ((0, LINK_LEVELS),),               # level beyond the tree
            ((0, -1),),
        ]:
            assert not _validator_accepts_updown(shape)

    def test_vc_budget_is_enforced(self):
        """Down hops need the second local VC; a one-VC budget must raise
        rather than fold both directions onto VC 0."""
        with pytest.raises(ValueError, match="not deadlock-free"):
            validate_updown_shapes(
                [((0, 0), (1, 0))], local_vcs=1, link_levels=LINK_LEVELS
            )

    def test_path_model_with_invalid_shape_rejected_at_construction(self):
        """End to end through validate_path_model: a fat-tree model whose
        declared shapes climb after the turn (a second up leg) must be
        rejected — construction-time proof, no dateline machinery."""
        import dataclasses

        from repro.routing.deadlock import validate_path_model
        from repro.topology.registry import create_topology, topology_preset

        model = create_topology(topology_preset("fat_tree", "tiny")).path_model
        validate_path_model(
            model, local_vcs=4, global_vcs=2,
            include_valiant=True, include_adaptive=True,
        )
        broken = dataclasses.replace(
            model,
            updown_minimal_shapes=(((0, 0), (1, 1), (0, 1)),),
        )
        with pytest.raises(ValueError, match="ascending"):
            validate_path_model(
                broken, local_vcs=4, global_vcs=2,
                include_valiant=True, include_adaptive=True,
            )


@pytest.mark.parametrize("topology", ["dragonfly", "torus", "fat_tree"])
def test_adaptive_validation_without_a_policy_rejected(topology):
    """Adaptive validation of a model that declares no in-transit policy is
    a contradiction the validator surfaces on every schedule: path stage,
    dateline and up/down alike."""
    import dataclasses

    from repro.routing.deadlock import validate_path_model
    from repro.topology.registry import create_topology, topology_preset

    model = create_topology(topology_preset(topology, "tiny")).path_model
    no_policy = dataclasses.replace(model, supports_in_transit_adaptive=False)
    with pytest.raises(ValueError, match="declares no in-transit policy"):
        validate_path_model(
            no_policy, local_vcs=4, global_vcs=2,
            include_valiant=True, include_adaptive=True,
        )


class TestExtendedRingBounds:
    """The extension for the nonminimal ring escape: traversal bounds."""

    def test_traversal_shorter_than_ring_accepted(self):
        validate_dateline_shapes(
            [((0, 0, 0), (0, 0, 1))],
            ring_vcs=RING_VCS,
            ring_lengths=(4, 4),
            max_ring_hops=(3, 3),
        )

    def test_traversal_covering_whole_ring_rejected(self):
        with pytest.raises(ValueError, match="whole ring"):
            validate_dateline_shapes(
                [((0, 0, 0),)],
                ring_vcs=RING_VCS,
                ring_lengths=(4, 4),
                max_ring_hops=(4, 3),
            )

    def test_undeclared_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            validate_dateline_shapes(
                [((0, 2, 0),)],
                ring_vcs=RING_VCS,
                ring_lengths=(4, 4),
                max_ring_hops=(3, 3),
            )

    def test_path_model_with_whole_ring_traversal_rejected(self):
        """End to end through validate_path_model: a policy declaring that
        an escaped traversal may cover a whole ring (e.g. one allowed to
        flip direction mid-ring) must be rejected at construction — the
        bound is a falsifiable declaration, not derived from the lengths."""
        import dataclasses

        from repro.routing.deadlock import validate_path_model
        from repro.topology.registry import create_topology, topology_preset

        model = create_topology(topology_preset("torus", "tiny")).path_model
        validate_path_model(
            model, local_vcs=4, global_vcs=2,
            include_valiant=True, include_adaptive=True,
        )
        broken = dataclasses.replace(
            model,
            dateline_adaptive_max_ring_hops=tuple(model.ring_lengths),
        )
        with pytest.raises(ValueError, match="whole ring"):
            validate_path_model(
                broken, local_vcs=4, global_vcs=2,
                include_valiant=True, include_adaptive=True,
            )
