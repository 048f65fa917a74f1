"""The experiment registry: every simulation experiment is a recipe.

A live :class:`~repro.simulator.simulation.Simulation` is full of paused
generators and cannot be pickled.  What *can* be stored is the recipe that
built it — the experiment name plus its keyword parameters — because every
experiment here is deterministic: the same recipe always produces the same
simulation, event for event.  A snapshot therefore stores ``(recipe, t,
state fingerprint)`` and a restore re-runs the recipe to ``t`` and checks
the fingerprint.

Each experiment is a builder (returns an unstarted ``Simulation``) and a
finisher (turns the ``SimulationResult`` into the experiment's point),
registered in :data:`EXPERIMENTS` as lazy ``"module:attr"`` strings —
importing this module pulls in no experiment code.  The sweep runner,
snapshots, warm starts and the service all go through
:func:`build_experiment` and :func:`run_experiment`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.errors import SnapshotError
from repro.faults.plan import FaultPlan

#: experiment name -> ("module:build", "module:finish"), where
#: ``build(**params) -> Simulation`` and ``finish(result, **params)``.
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "exp1": ("repro.experiments.exp1_single:build_exp1",
             "repro.experiments.exp1_single:finish_exp1"),
    "exp2": ("repro.experiments.exp2_concurrent:build_exp2",
             "repro.experiments.exp2_concurrent:finish_exp2"),
    "exp4": ("repro.experiments.exp4_nighres:build_exp4",
             "repro.experiments.exp4_nighres:finish_exp4"),
    "exp6": ("repro.experiments.exp6_cluster:build_exp6",
             "repro.experiments.exp6_cluster:finish_exp6"),
    "exp7": ("repro.experiments.exp7_trace_replay:build_exp7",
             "repro.experiments.exp7_trace_replay:finish_exp7"),
    "exp9": ("repro.experiments.exp9_failures:build_exp9",
             "repro.experiments.exp9_failures:finish_exp9"),
    "service-cluster": ("repro.service.base:build_service_cluster",
                        "repro.service.base:finish_service_cluster"),
}


def load_target(target: str) -> Any:
    """Import the attribute a ``"module:attr"`` string names."""
    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def experiment(name: str) -> Tuple[Callable[..., Any], Callable[..., Any]]:
    """Resolve a registered experiment name to its ``(build, finish)`` pair."""
    try:
        build, finish = EXPERIMENTS[name]
    except KeyError:
        raise SnapshotError(
            f"unknown experiment {name!r} "
            f"(registered: {', '.join(sorted(EXPERIMENTS))})"
        ) from None
    return load_target(build), load_target(finish)


# ------------------------------------------------------------------ params
def encode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-encode recipe parameters.

    Fault plans get a marker wrapper and paths are stored as strings; any
    other value must already be plain JSON, or :class:`SnapshotError`
    names the parameter (an in-memory ``SWFTrace``, say, cannot be
    rebuilt from a file).
    """
    encoded: Dict[str, Any] = {}
    for key, value in params.items():
        if isinstance(value, FaultPlan):
            value = {"__fault_plan__": value.as_dict()}
        elif isinstance(value, os.PathLike):
            value = os.fspath(value)
        else:
            try:
                json.dumps(value, allow_nan=False)
            except (TypeError, ValueError):
                raise SnapshotError(
                    f"recipe parameter {key!r} is not JSON-encodable "
                    f"({type(value).__name__}); pass a path or plain "
                    "values to snapshot this simulation"
                ) from None
        encoded[key] = value
    return encoded


def decode_params(data: Dict[str, Any]) -> Dict[str, Any]:
    """Invert :func:`encode_params`."""
    decoded: Dict[str, Any] = {}
    for key, value in data.items():
        if isinstance(value, dict) and "__fault_plan__" in value:
            decoded[key] = FaultPlan.from_dict(value["__fault_plan__"])
        else:
            decoded[key] = value
    return decoded


@dataclass(frozen=True)
class SimRecipe:
    """An experiment name plus the keyword parameters that build it."""

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)

    def encoded(self) -> Dict[str, Any]:
        """The JSON-able ``{"experiment", "params"}`` form."""
        return {"experiment": self.experiment,
                "params": encode_params(self.params)}

    @classmethod
    def decode(cls, doc: Dict[str, Any]) -> "SimRecipe":
        """Rebuild a recipe from a snapshot document (or its subset)."""
        return cls(experiment=doc["experiment"],
                   params=decode_params(doc["params"]))


def build_experiment(name: str, **params):
    """Build ``name``'s simulation (unstarted) with its full recipe bound.

    ``params`` are bound to the builder's signature with its defaults
    applied (a ``**kwargs`` parameter is flattened), so the recipe keeps
    every builder parameter and a snapshot rebuilds the same simulation
    even if a default later changes.
    """
    build, _ = experiment(name)
    signature = inspect.signature(build)
    bound = signature.bind(**params)
    bound.apply_defaults()
    full: Dict[str, Any] = {}
    for key, value in bound.arguments.items():
        if signature.parameters[key].kind is inspect.Parameter.VAR_KEYWORD:
            full.update(value)
        else:
            full[key] = value
    simulation = build(**full)
    simulation.bind_recipe(SimRecipe(name, full))
    return simulation


def run_experiment(name: str, **params):
    """Build, run and finish one point of experiment ``name``."""
    simulation = build_experiment(name, **params)
    return finish_point(simulation.recipe, simulation.run())


def build_from_recipe(recipe: SimRecipe):
    """Build a fresh, unstarted simulation from ``recipe``."""
    return build_experiment(recipe.experiment, **recipe.params)


def finish_point(recipe: SimRecipe, result):
    """Turn a finished ``SimulationResult`` into the experiment's point."""
    _, finish = experiment(recipe.experiment)
    return finish(result, **recipe.params)
