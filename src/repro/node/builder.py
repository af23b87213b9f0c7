"""The one trainer builder: every process builds its nodes from the spec here.

The engine builds its aggregators, relays, dedicated trainers and pool
workers with a :class:`NodeBuilder`; a ``redis://`` broker worker and a live
cluster node build their single trainer with :func:`load_worker` from the
spec the engine published.  The spec's seeded factories are resolved once
per process and every node gets the plugins, fault model and attack plan of
its role, which is what makes a turn bit-identical on every execution
substrate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.data.views import ClientDataProvider
from repro.node.node import Node
from repro.topology.base import NodeRole, NodeSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiment.spec import ExperimentSpec

__all__ = ["NodeBuilder", "load_worker"]


class NodeBuilder:
    """Builds :class:`Node` objects for one spec (resolved once)."""

    def __init__(self, spec: "ExperimentSpec", num_clients: Optional[int] = None) -> None:
        from repro.experiment import spec as spec_mod

        self.spec = spec
        self.datamodule = spec_mod.resolve_datamodule(spec)
        self.model_fn = spec_mod.resolve_model_fn(spec, self.datamodule)
        self.algorithm_fn = spec_mod.resolve_algorithm_fn(spec)
        self.compressor_fn, self.outer_compressor_fn, self.dp_fn = (
            spec_mod.resolve_plugin_fns(spec)
        )
        if num_clients is None:
            num_clients = spec_mod.resolve_topology(spec).trainer_count()
        self.num_clients = int(num_clients)
        # pure function of (spec, cohort, classes): every process derives
        # the same attacker set from the published spec alone
        self.attack_plan = spec_mod.resolve_attack_plan(
            spec, self.num_clients, self.datamodule.num_classes
        )

    def data_provider(self) -> ClientDataProvider:
        """The cohort's per-client training views."""
        data = self.spec.data
        return ClientDataProvider(
            self.datamodule,
            self.num_clients,
            data.partition,
            alpha=data.partition_alpha,
            seed=int(self.spec.seed),
            feature_noniid=float(data.feature_noniid),
        )

    def build(self, nspec: NodeSpec, train_dataset: Any = None) -> Node:
        """A fresh node for ``nspec``; DP, scripted faults and the attack
        apply to trainer roles only."""
        trains = nspec.role.trains()
        faults = self.spec.faults
        plan = self.attack_plan
        return Node(
            spec=nspec,
            model=self.model_fn(),
            algorithm=self.algorithm_fn(),
            train_dataset=train_dataset,
            test_dataset=self.datamodule.test,
            batch_size=int(self.spec.data.batch_size),
            seed=int(self.spec.seed),
            dp=self.dp_fn() if (self.dp_fn is not None and trains) else None,
            compressor=self.compressor_fn() if self.compressor_fn is not None else None,
            outer_compressor=(
                self.outer_compressor_fn() if self.outer_compressor_fn is not None else None
            ),
            drop_prob=faults.drop_prob if trains else 0.0,
            straggler_prob=faults.straggler_prob if trains else 0.0,
            straggler_delay=faults.straggler_delay,
            attack=plan.attack if plan is not None and trains else None,
            attacker_ids=plan.attacker_ids if plan is not None else (),
        )

    def worker(self, name: str, index: int) -> Node:
        """A trainer with no mounted shard: pooled turns mount each
        client's data view for the length of the turn."""
        return self.build(NodeSpec(name=name, index=index, role=NodeRole.TRAINER))


def load_worker(
    spec_yaml: str, num_clients: Optional[int], name: str, index: int
) -> Tuple[Node, ClientDataProvider, Dict[str, Any]]:
    """(node, data provider, baseline) for a process that serves pooled
    turns from a published spec (``num_clients=None``: the spec's cohort)."""
    from repro.experiment.spec import ExperimentSpec

    builder = NodeBuilder(ExperimentSpec.from_yaml(spec_yaml), num_clients)
    node = builder.worker(name, index)
    node.setup_local()
    return node, builder.data_provider(), node.pool_baseline()
