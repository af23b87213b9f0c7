"""ClusterSpec validation, live-mode constraints, and YAML roundtrip."""

import pytest

from repro.conf import builtin_store
from repro.config import compose
from repro.experiment import ExperimentSpec, SpecError
from repro.experiment.spec import ClusterSpec, FaultSpec


# ------------------------------------------------------------ ClusterSpec
def test_cluster_defaults():
    cl = ClusterSpec()
    assert cl.bind == "127.0.0.1:0"
    assert cl.transport == "tcp"
    assert cl.min_nodes == 1
    assert cl.detector == "timeout"
    assert cl.lease > cl.heartbeat


@pytest.mark.parametrize("kwargs,match", [
    ({"transport": "carrier-pigeon"}, "transport"),
    ({"min_nodes": 0}, "min_nodes"),
    ({"join_timeout": 0}, "join_timeout"),
    ({"heartbeat": 0}, "heartbeat"),
    ({"heartbeat": 1.0, "lease": 0.5}, "lease"),
    ({"detector": "seance"}, "detector"),
    ({"phi_threshold": 0}, "phi_threshold"),
])
def test_cluster_spec_validation(kwargs, match):
    with pytest.raises(SpecError, match=match):
        ClusterSpec(**kwargs)


# ------------------------------------------------------------ live-mode rules
def test_live_mode_requires_cluster():
    with pytest.raises(SpecError, match="needs a cluster spec"):
        ExperimentSpec(mode="live")


# mode auto with a cluster block resolves to live, so it obeys the same rules
LIVE_MODES = pytest.mark.parametrize("mode", ["live", "auto"])


@LIVE_MODES
def test_live_mode_forbids_scripted_faults(mode):
    with pytest.raises(SpecError, match="scripted fault model"):
        ExperimentSpec(
            mode=mode, cluster={},
            faults=FaultSpec(drop_prob=0.2),
        )
    with pytest.raises(SpecError, match="scripted fault model"):
        ExperimentSpec(
            mode=mode, cluster={},
            faults=FaultSpec(straggler_prob=0.2),
        )


@LIVE_MODES
def test_live_mode_forbids_pool(mode):
    with pytest.raises(SpecError, match="pool_size"):
        ExperimentSpec(mode=mode, cluster={}, pool_size=2)


@LIVE_MODES
def test_live_mode_forbids_batch_turns(mode):
    with pytest.raises(SpecError, match="batch_turns"):
        ExperimentSpec(mode=mode, cluster={}, batch_turns=4)


@LIVE_MODES
def test_live_mode_forbids_external_broker(mode):
    with pytest.raises(SpecError, match="broker"):
        ExperimentSpec(mode=mode, cluster={}, broker="redis://localhost:6379/0")


def test_cluster_under_rounds_mode_rejected():
    with pytest.raises(SpecError, match="mode='live'"):
        ExperimentSpec(mode="rounds", cluster={})


def test_cluster_mapping_becomes_dataclass():
    spec = ExperimentSpec(mode="live", cluster={"min_nodes": 3, "lease": 5.0})
    assert isinstance(spec.cluster, ClusterSpec)
    assert spec.cluster.min_nodes == 3
    assert spec.cluster.lease == 5.0


# ------------------------------------------------------------ mode resolution
def test_auto_with_cluster_resolves_live():
    spec = ExperimentSpec(mode="auto", cluster={})
    assert spec.run_mode() == "live"


def test_live_mode_resolves_live():
    assert ExperimentSpec(mode="live", cluster={}).run_mode() == "live"


def test_auto_without_cluster_unchanged():
    assert ExperimentSpec().run_mode() == "rounds"
    assert ExperimentSpec(scheduler="fedasync").run_mode() == "async"


# ------------------------------------------------------------ serialization
def test_cluster_yaml_roundtrip():
    spec = ExperimentSpec(
        mode="live",
        cluster={"bind": "0.0.0.0:7070", "min_nodes": 3, "detector": "phi",
                 "phi_threshold": 6.0},
    )
    clone = ExperimentSpec.from_yaml(spec.to_yaml())
    assert isinstance(clone.cluster, ClusterSpec)
    assert clone.cluster == spec.cluster
    assert clone.run_mode() == "live"
    assert clone.fingerprint() == spec.fingerprint()


def test_cluster_absent_roundtrip():
    spec = ExperimentSpec()
    clone = ExperimentSpec.from_yaml(spec.to_yaml())
    assert clone.cluster is None


def test_cluster_changes_fingerprint():
    base = ExperimentSpec()
    live = ExperimentSpec(mode="live", cluster={})
    assert base.fingerprint() != live.fingerprint()


# ------------------------------------------------------------ config compose
def test_compose_live_overrides():
    cfg = compose(builtin_store(), "experiment", overrides=[
        "mode=live", "+cluster.bind=127.0.0.1:7070", "+cluster.min_nodes=3",
    ])
    spec = ExperimentSpec.from_config(cfg)
    assert spec.run_mode() == "live"
    assert spec.cluster.bind == "127.0.0.1:7070"
    assert spec.cluster.min_nodes == 3
