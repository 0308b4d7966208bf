"""Per-layer tracing from outside the package.

Each public function of the five package modules (the names in their
__all__ that are functions defined there), plus
SymplecticTransform.__post_init__, is wrapped in a timer. The wrapper is
rebound in every cvdcnet namespace that holds the original object, so
calls made inside the package (cli_scan -> threshold_energy,
advantage_analysis -> channel_matrix_batch, ...) are counted too.

A function's self time is its total time minus the time covered by
wrapped callees. Counters derived from arguments (grid points, bytes,
samples) are recorded at the same boundary.
"""

import functools
import inspect
import sys
import time

MODULES = ("phase_space", "resource_prep", "dc_protocol", "advantage_analysis", "cli_scan")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {}

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount


def _channel_batch_counts(stat, args, kwargs, result):
    points, rows, cols = result.shape  # (G, n, n) after row selection
    stat.add("points", points)
    stat.add("bytes", points * 2 * rows * cols * 8)  # the (G, 2n, n) chain array


def _mc_counts(stat, args, kwargs, result):
    stat.add("samples", int(args[1] if len(args) > 1 else kwargs["n_samples"]))


def _serialize_counts(stat, args, kwargs, result):
    stat.add("bytes_out", len(result))


def _parse_counts(stat, args, kwargs, result):
    stat.add("bytes_in", len(args[0] if args else kwargs["data"]))


COUNTERS = {
    "dc_protocol.channel_matrix_batch": _channel_batch_counts,
    "dc_protocol.mutual_information_mc": _mc_counts,
    "cli_scan.serialize_region": _serialize_counts,
    "cli_scan.parse_region": _parse_counts,
}


class LayerTrace:
    """Timers for every wrapped function, keyed '<module>.<function>'."""

    def __init__(self):
        self.stats = {}
        self._child_time = []  # one accumulator per open wrapped call

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        count = COUNTERS.get(name)
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
            if count is not None:
                count(stat, args, kwargs, result)
            return result

        return timed

    def install(self):
        """Wrap and rebind; irreversible for the life of the process."""
        from cvdcnet import phase_space

        namespaces = [
            module for key, module in sys.modules.items()
            if key == "cvdcnet" or key.startswith("cvdcnet.")
        ]
        for mod_name in MODULES:
            module = sys.modules[f"cvdcnet.{mod_name}"]
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original) or original.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)
        cls = phase_space.SymplecticTransform
        cls.__post_init__ = self._wrap("phase_space.SymplecticTransform", cls.__post_init__)
        return self

    def snapshot(self):
        """{'<module>.<function>': {'calls', 'self_s', 'total_s', counters...}}"""
        return {
            name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s, **s.counters}
            for name, s in self.stats.items()
        }
