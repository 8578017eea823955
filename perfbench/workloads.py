"""The benchmark's workloads: batch training jobs run one at a time.

Each workload is a dataset shape plus a FedConfig built from the workload
seed. Why each one exists, and which layers it loads most and least, is
written down in perfbench/RATIONALE.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from hssfl.federation import FedConfig
from hssfl.sslnet import MlpSpec


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    dim: int
    per_class: int
    workers: int
    config: Callable[[int], FedConfig]
    # With stop_after set, the job stops after that round and a second
    # run_training(..., resume=True) call on freshly loaded data finishes it.
    stop_after: Optional[int] = None


def _desk_config(seed: int, rad_size: int, rounds: int) -> FedConfig:
    # tanh, not the acceptance test's relu: with relu, zero biases and the
    # normalized loss, a row whose hidden units are all inactive maps to an
    # exact zero output, and sslnet refuses to normalize it
    # (DegenerateInputError) on about one seed in sixteen.
    specs = tuple(MlpSpec((32, 16, 8), "tanh") if k < 3 else MlpSpec((32, 24, 16), "tanh")
                  for k in range(5))
    return FedConfig(
        num_clients=5, rounds=rounds, local_epochs=5, eta=0.1, momentum=0.9,
        batch_size=64, mu=0.5, proximal_form="one_minus_cka", tau=0.9,
        client_specs=specs, rad_size=rad_size, seed=seed, partition="noniid",
        noise_std=0.3, mask_prob=0.1, normalize_loss=True,
    )


def _fleet_config(seed: int) -> FedConfig:
    cycle = (MlpSpec((12, 6), "relu"), MlpSpec((12, 8, 6), "relu"),
             MlpSpec((12, 10, 6), "tanh"))
    return FedConfig(
        num_clients=20, rounds=100, local_epochs=1, eta=0.005, momentum=0.0,
        batch_size=1_000_000, mu=0.5, proximal_form="one_minus_cka", tau=0.99,
        client_specs=tuple(cycle[k % 3] for k in range(20)), rad_size=24,
        seed=seed, partition="iid", sample_size=5,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("desk", 10, 32, 200, workers=1,
                 config=lambda seed: _desk_config(seed, rad_size=128, rounds=10)),
        Workload("wide_rad", 10, 32, 200, workers=2,
                 config=lambda seed: _desk_config(seed, rad_size=512, rounds=2),
                 stop_after=1),
        Workload("fleet", 10, 12, 100, workers=1, config=_fleet_config),
    )
}
