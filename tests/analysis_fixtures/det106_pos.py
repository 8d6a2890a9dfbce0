# detlint: scope=pool-crossing
"""DET106 positive: minimal reproduction of PR 4's pickled-memo regression.

``MetricsCollector`` grew a percentile memo cache; shipped inside the pickled
run result across the process pool it bloated payloads and risked stale
summaries until ``__getstate__`` dropped it.
"""

from collections import defaultdict


class Collector:
    def __init__(self):
        self.samples = []
        self._cache = {}  # PR 4 bug shape: memo pickled with the object

    def percentile(self, q):
        hit = self._cache.get(q)
        if hit is None:
            hit = self._cache[q] = sorted(self.samples)[0]
        return hit


class Summarizer:
    def __init__(self):
        self.memo_by_key = defaultdict(dict)
