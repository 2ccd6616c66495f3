"""Registry of named predicates used by conditional dependency edges.

A conditional edge is satisfied when its upstream task is terminal and the
named predicate, evaluated over the upstream task's result payload, returns
true. Predicates are registered by name so that graph documents stay purely
declarative.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from .errors import UnknownCondition

Predicate = Callable[[Any], bool]


class ConditionRegistry:
    def __init__(self) -> None:
        self._predicates: Dict[str, Predicate] = {}

    def register(self, name: str, predicate: Predicate) -> None:
        self._predicates[name] = predicate

    def evaluate(self, name: str, result: Any) -> bool:
        if name not in self._predicates:
            raise UnknownCondition(f"no evaluator registered for condition {name!r}")
        return bool(self._predicates[name](result))


def always_true(_result: Any) -> bool:
    return True


def default_registry() -> ConditionRegistry:
    registry = ConditionRegistry()
    registry.register("always", always_true)
    return registry
