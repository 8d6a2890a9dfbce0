# detlint: scope=sim
"""DET104 positive: truthiness tests on chaos/trace hooks.

The measured zero-overhead-off idiom (ROADMAP standing constraint) is
``if hook is not None``; plain truthiness re-evaluates __bool__ and silently
skips falsy-but-armed hooks.
"""


class Node:
    def __init__(self):
        self.fault_hook = None
        self.tracer = None
        self.replicator = None

    def transition(self, edge):
        if self.fault_hook:  # wrong: truthiness
            self.fault_hook(edge)

    def record(self, event):
        if not self.tracer:  # wrong: negated truthiness
            return
        self.tracer.instant(event)

    def ship(self, lsn):
        if self.replicator:  # wrong: the third node hook, same idiom
            self.replicator.on_wal_append(self, lsn, ())

    def both(self, chaos, payload):
        return chaos and chaos.deliver(payload)  # wrong: boolean operand
