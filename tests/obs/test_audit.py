"""SPSA audit trail: recording, replay verification, JSONL export."""

import json

import pytest

from repro.core.bounds import Box
from repro.obs import AuditTrail, SPSADecision, clipped_axes


def make_decision(**overrides):
    base = dict(
        round_index=1,
        k=1,
        sim_time=30.0,
        rho=0.2,
        a_k=2.0,
        c_k=0.5,
        theta=(0.4, 0.6),
        delta=(1.0, -1.0),
        theta_plus=(0.9, 0.1),
        theta_minus=(-0.1, 1.1),
        probe_clipped=(False, False),
        y_plus=3.0,
        y_minus=5.0,
        gradient=(-2.0, 2.0),
        theta_next=(4.4, -3.4),
        step_clipped=(False, False),
    )
    base.update(overrides)
    return SPSADecision(**base)


class TestReplay:
    def test_faithful_trail_has_no_mismatches(self):
        trail = AuditTrail()
        trail.record_decision(make_decision())
        assert trail.replay() == []

    def test_tampered_gradient_caught(self):
        trail = AuditTrail()
        trail.record_decision(make_decision(gradient=(-2.0, 2.5)))
        mismatches = trail.replay()
        assert [m.what for m in mismatches] == ["gradient"]

    def test_box_verifies_projection(self):
        box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
        trail = AuditTrail()
        # theta - a_k*g = (0.4+4, 0.6-4) projects to (1, 0)
        trail.record_decision(
            make_decision(theta_next=(1.0, 0.0), step_clipped=(True, True))
        )
        assert trail.replay(box=box) == []
        trail2 = AuditTrail()
        trail2.record_decision(make_decision(theta_next=(0.9, 0.0)))
        assert [m.what for m in trail2.replay(box=box)] == ["theta_next"]

    def test_guarded_round_must_not_move(self):
        trail = AuditTrail()
        trail.record_decision(
            make_decision(guarded=True, gradient=None, theta_next=(0.4, 0.6))
        )
        assert trail.replay() == []
        trail2 = AuditTrail()
        trail2.record_decision(
            make_decision(guarded=True, gradient=None, theta_next=(0.5, 0.6))
        )
        assert [m.what for m in trail2.replay()] == ["guarded_moved"]


class TestSerialization:
    def test_jsonl_round_trip(self):
        trail = AuditTrail()
        trail.record_decision(make_decision())
        trail.record_decision(
            make_decision(round_index=2, guarded=True, gradient=None,
                          theta_next=(0.4, 0.6), plus_corrupted=True)
        )
        trail.record_firing("pause", 3, 90.0, detail="impeded progress")
        back = [json.loads(line) for line in trail.to_jsonl().splitlines()]
        assert back == [d.to_dict() for d in trail.decisions] + [
            f.to_dict() for f in trail.firings
        ]

    def test_save(self, tmp_path):
        trail = AuditTrail()
        trail.record_decision(make_decision())
        path = trail.save(str(tmp_path / "audit.jsonl"))
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == trail.to_jsonl() + "\n"

    def test_unknown_rule_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown rule kind"):
            AuditTrail().record_firing("explode", 1, 0.0)

    def test_disabled_trail_records_nothing(self):
        trail = AuditTrail(enabled=False)
        trail.record_decision(make_decision())
        trail.record_firing("pause", 1, 0.0)
        assert len(trail) == 0
        assert trail.firings == []


class TestClippedAxes:
    def test_flags_moved_axes_only(self):
        assert clipped_axes((1.5, 0.3), (1.0, 0.3)) == (True, False)
        assert clipped_axes((0.1, 0.2), (0.1, 0.2)) == (False, False)


class TestReplayEdgeCases:
    def test_empty_trail_replays_clean(self):
        """A run that never reached its first SPSA round is vacuously
        consistent — replay must return no mismatches, not crash."""
        assert AuditTrail().replay() == []
        box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
        assert AuditTrail().replay(box) == []

    def test_interrupted_final_round_reports_missing_gradient(self):
        """A trail whose last round was cut off mid-step — probes were
        measured and logged, but the run died before the step record —
        lands as an unguarded decision with no gradient.  Replay must
        flag exactly that round and keep judging the rest."""
        trail = AuditTrail()
        trail.record_decision(make_decision(round_index=1))
        trail.record_decision(make_decision(
            round_index=2,
            gradient=None,
            theta_next=(0.4, 0.6),  # never moved: no step was taken
        ))
        mismatches = trail.replay()
        assert [(m.round_index, m.what) for m in mismatches] == [
            (2, "missing_gradient")
        ]

    def test_interrupted_round_survives_jsonl_round_trip(self):
        trail = AuditTrail()
        trail.record_decision(make_decision(
            round_index=1, gradient=None, theta_next=(0.4, 0.6)
        ))
        assert json.loads(trail.to_jsonl())["gradient"] is None
        assert [m.what for m in trail.replay()] == ["missing_gradient"]
