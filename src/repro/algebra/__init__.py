"""Bound algebra: scalar expressions, logical/physical operators,
distribution properties and the shared expression evaluator."""

from repro.algebra import (
    evaluator,
    expressions,
    logical,
    physical,
    properties,
)

__all__ = ["evaluator", "expressions", "logical", "physical",
           "properties"]
