"""Timed operations and the workloads made of them."""


class Op:
    """One timed operation.

    ``run`` is the timed call and returns gisalg's raw answers; ``read``
    turns them into reference form and ``check`` judges that form, both
    outside the timed region.  ``fault`` marks an operation that fails
    because of the known fault in the cycle-type branch of
    ``cosets.index_verdict``: its failures count as failed operations, any
    other failure makes the run incorrect.
    """

    __slots__ = ("kind", "run", "read", "check", "fault")

    def __init__(self, kind, run, read, check, fault=False):
        self.kind = kind
        self.run = run
        self.read = read
        self.check = check
        self.fault = fault


def repeat(fn, k):
    """A fixed batch of k calls of one question, timed as one operation."""
    return lambda: [fn() for _ in range(k)]


class Workload:
    """A round of operations, repeated whole; ``warm`` runs once before
    timing; ``traced`` is what the traced run times (the round itself unless
    the workload times something that cannot be traced in-process)."""

    def __init__(self, ops, warm, traced=None):
        self.ops = ops
        self.warm = warm
        self.traced = traced if traced is not None else ops
