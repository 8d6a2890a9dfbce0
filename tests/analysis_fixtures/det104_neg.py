# detlint: scope=sim
"""DET104 negative: explicit identity tests are the sanctioned idiom."""


class Node:
    def __init__(self):
        self.fault_hook = None
        self.tracer = None
        self.replicator = None

    def transition(self, edge):
        hook = self.fault_hook
        if hook is not None:
            hook(edge)

    def record(self, event):
        if self.tracer is None:
            return
        self.tracer.instant(event)

    def ship(self, lsn):
        if self.replicator is not None:
            self.replicator.on_wal_append(self, lsn, ())

    def unrelated(self, flag, items):
        # Truthiness on non-hook names stays allowed.
        if flag and items:
            return items[0]
        return None
