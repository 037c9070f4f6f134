"""Fastpath: batched cross-agent inference and hot-path optimization.

The paper's DTDE design runs one independent PPO learner per switch with
*identical architectures and independent parameters* — which is exactly
the shape batched linear algebra wants.  :mod:`repro.fastpath.batched`
stacks the per-agent MLP weights into 3-D tensors and replaces the
per-agent Python loops in :class:`repro.rl.ippo.IPPOTrainer` with a
single batched forward per tick.

Every fastpath is **bit-identical** to the reference loop it replaces
(proved by the differential tests in ``tests/test_fastpath.py``); the
reference implementations remain available behind
``PETConfig.fastpath=False`` / ``PPOConfig.fastpath=False``.

See ``docs/PERFORMANCE.md`` for the hot-path inventory.
"""

from repro.fastpath.batched import StackedAgents, StackedMLPs, stacking_error

__all__ = ["StackedAgents", "StackedMLPs", "stacking_error"]
