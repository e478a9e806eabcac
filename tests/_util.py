"""Independent oracles and shared helpers for the test suite.

The oracles deliberately avoid the library's own vectorized code paths: the
depth order oracle walks the pixel stacks one by one with a hand-rolled BFS,
and the gradient oracle uses central finite differences.
"""

import sys
import threading
from collections import deque

import numpy as np

from semdist import LayerStackScene, OrderVerdict


def _largest_component_bfs(mask: np.ndarray) -> int:
    """Largest 4-connected component size, breadth-first, no scipy."""
    height, width = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    best = 0
    for y in range(height):
        for x in range(width):
            if not mask[y, x] or seen[y, x]:
                continue
            size = 0
            queue = deque([(y, x)])
            seen[y, x] = True
            while queue:
                cy, cx = queue.popleft()
                size += 1
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < height and 0 <= nx < width:
                        if mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            best = max(best, size)
    return best


def stack_order_oracle(scene: LayerStackScene, id_a: int, id_b: int) -> OrderVerdict:
    """Object depth order read straight off the pixel stacks.

    Per pixel where both instances appear, the one at the smaller stack index
    is in front. The verdict is the sign of the larger of the two largest
    4-connected same-sign regions; equal sizes are ambiguous and no shared
    pixel at all means disjoint.
    """
    votes = np.zeros((scene.height, scene.width), dtype=np.int64)
    shared = np.zeros((scene.height, scene.width), dtype=bool)
    planes = scene.stacks.tolist()
    for y in range(scene.height):
        for x in range(scene.width):
            # the pixel's non-zero ids, front to back
            stack = [plane[y][x] for plane in planes if plane[y][x]]
            if id_a in stack and id_b in stack:
                shared[y, x] = True
                votes[y, x] = np.sign(stack.index(id_b) - stack.index(id_a))
    if not shared.any():
        return OrderVerdict.DISJOINT
    front = _largest_component_bfs(votes > 0)
    behind = _largest_component_bfs(votes < 0)
    if front == behind:
        return OrderVerdict.AMBIGUOUS
    return OrderVerdict.A_IN_FRONT if front > behind else OrderVerdict.B_IN_FRONT


def fd_gradient(fn, point: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at point."""
    flat = point.astype(np.float64).ravel().copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        upper = fn(flat.reshape(point.shape))
        flat[i] = saved - step
        lower = fn(flat.reshape(point.shape))
        flat[i] = saved
        grad[i] = (upper - lower) / (2.0 * step)
    return grad.reshape(point.shape)


def max_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Worst relative deviation with the denominator floored at 1."""
    denom = np.maximum(1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / denom))


def race(read, threads: int = 8) -> list:
    """read() from many threads released at once, with a short switch
    interval so that they interleave; returns what each thread read."""
    seen = []
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait(timeout=10)
        seen.append(read())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == threads
    return seen
