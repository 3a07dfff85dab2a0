"""RPS103 corpus: checkpoint-stale state on snapshot-crossing classes.

``SessionSnapshot`` captures *instance* state: one pickle of the session.
Class-level mutable defaults are shared across instances and live on the
class object — a restored session aliases whatever the live process
mutated since the checkpoint. Instance attributes that alias a
module-level mutable are pickled by value at snapshot time, so the
restored copy silently diverges from the live module state.
"""

_PATH_CACHE = {}  # module-level mutable the session must not alias
_EPOCH = 4  # immutable: aliasing an int is value semantics


class Embedder:
    """Algorithm-shaped (``process``/``release``): crosses the boundary."""

    seen_apps = []  # BAD: class-level mutable shared across instances

    def __init__(self, substrate):
        self.substrate = substrate
        self.cache = _PATH_CACHE  # BAD: aliases a module-level mutable
        self.epoch = _EPOCH  # OK: immutable value copy
        self.active = {}  # OK: instance-owned mutable

    def process(self, request):
        self.seen_apps.append(request.app)
        return request

    def release(self, request):
        self.active.pop(request.id, None)


class ScratchBuffer:
    """Never crosses a snapshot/pool boundary: same shapes are fine."""

    shared = []  # OK: not a snapshot-crossing class

    def __init__(self):
        self.cache = _PATH_CACHE  # OK: not a snapshot-crossing class


#: line -> expected rule findings (the corpus replay asserts exactness).
EXPECTED = {
    "RPS103": [18, 22],
}
