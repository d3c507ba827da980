"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the same work runs up to half again as slow while other
tenants are busy, and that share drifts from one minute to the next, so
two runs of the same program can differ by more than a regression worth
catching.  The reference kernel is fixed code of the same kind as
cnslab's hot loop: small dense matmuls, a softmax cross-entropy gradient,
a wide inference pass and some interpreter work.  Sampled between the
timed steps of a run (set-up runs and operations), its median time just
before and just after a step measures the host's speed while the step
ran, and ``scale`` turns the step's time into the time it would take on
a host where the kernel takes ``NOMINAL_S``.  Slow stretches that last
minutes, which the median of a run's steps cannot average out, then
cancel.

The kernel runs in a helper process of its own, so the state the program
leaves behind in the benchmark process (its heap, caches and threads)
cannot speed it up or slow it down.  Only one of the two processes works
at a time, and ``run.py`` keeps both on one CPU, so that the kernel
meets the same contention as the operations.

Run as a script, this file is that helper: each line on standard input
asks for samples over that many seconds, and the answer is one line of
JSON with the sample times.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import List

# Median seconds of one kernel call on the 2-core Xeon host the benchmark
# was calibrated on, outside its slow stretches; ``scale`` maps a run onto
# a host this fast.
NOMINAL_S = 0.008
# The kernel is sampled for FIRST_SAMPLE_S before the first timed step and,
# after each step, for SAMPLE_SHARE of the time that step took but at least
# MIN_SAMPLE_S, so that the samples spread over the run as its steps do.
FIRST_SAMPLE_S = 0.5
SAMPLE_SHARE = 0.1
MIN_SAMPLE_S = 0.3


def _kernel_state():
    import numpy as np

    rng = np.random.default_rng(0)

    def layer(fan_in, fan_out):
        return rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)

    return {
        "pixels": rng.standard_normal((4, 64, 64, 15)),
        "params": {"enc.w0": layer(15, 64), "enc.w1": layer(64, 64),
                   "sem.w": layer(64, 512), "ali.w": layer(64, 64)},
        "emb": rng.standard_normal((8, 512)) / np.sqrt(512),
        "anchors": rng.standard_normal((256, 64)),
        "labels": rng.integers(0, 8, 256),
        "order": rng.permutation(4 * 64 * 64),
        "step": 0,
    }


def _kernel(s):
    """Work shaped like cnslab's training loop; about 8 ms.

    One SGD step of a 15-64-64 ReLU encoder with a 512-dim semantic head
    scored against 8 class embeddings and a cosine-aligned 64-dim head,
    on a gathered batch of 256 pixels, then one inference pass over a
    512-pixel chunk of a 4x64x64 view stack.
    """
    import numpy as np

    p, emb = s["params"], s["emb"]
    flat = s["pixels"].reshape(-1, 15)
    lo = (s["step"] * 256) % len(flat)
    x = flat[s["order"][lo:lo + 256]]
    s["step"] += 1
    h = np.maximum(x @ p["enc.w0"], 0.0)
    z = h @ p["enc.w1"]
    sem = z @ p["sem.w"]
    logits = sem @ emb.T / 0.07
    prob = np.exp(logits - logits.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    prob[np.arange(len(x)), s["labels"][:len(x)]] -= 1.0
    d_sem = prob @ emb / (0.07 * len(x))
    ali = z @ p["ali.w"]
    norm = np.linalg.norm(ali, axis=1, keepdims=True) + 1e-8
    cos = np.einsum("ij,ij->i", ali / norm, s["anchors"][:len(x)])
    d_ali = (s["anchors"][:len(x)] - cos[:, None] * ali / norm) / norm
    d_z = d_sem @ p["sem.w"].T - d_ali @ p["ali.w"].T / len(x)
    d_h = (d_z @ p["enc.w1"].T) * (h > 0)
    grads = {"enc.w0": x.T @ d_h, "enc.w1": h.T @ d_z,
             "sem.w": z.T @ d_sem, "ali.w": -z.T @ d_ali / len(x)}
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(name)
        p[name] -= 1e-3 * grad
    chunk = flat[lo % 8192: lo % 8192 + 512]
    feats = np.maximum(chunk @ p["enc.w0"], 0.0) @ p["enc.w1"]
    return np.argmax(feats @ p["sem.w"] @ emb.T, axis=1)


def _serve():
    state = _kernel_state()
    for line in sys.stdin:
        stop = time.perf_counter() + float(line)
        samples = []
        while not samples or time.perf_counter() < stop:
            start = time.perf_counter()
            _kernel(state)
            samples.append(time.perf_counter() - start)
        print(json.dumps(samples), flush=True)


class HostSpeed:
    """The helper process and the samples it returned; a context manager."""

    def __init__(self):
        self.samples: List[float] = []
        self._last: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self, seconds: float) -> List[float]:
        """Run the kernel for ``seconds``; keep and return its times."""
        self._proc.stdin.write(f"{seconds}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the host-speed helper exited early")
        samples = json.loads(line)
        self.samples.extend(samples)
        return samples

    def start(self):
        """Sample before the first of a series of timed steps."""
        self._last = self.sample(FIRST_SAMPLE_S)

    def after(self, seconds: float) -> float:
        """Sample after a step that took ``seconds``.

        Returns the kernel's median time around the step: over this sample
        and the one before the step.
        """
        before = self._last
        self._last = self.sample(max(SAMPLE_SHARE * seconds, MIN_SAMPLE_S))
        return statistics.median(before + self._last)

    def close(self):
        """Stop the helper and wait for it to end."""
        try:
            self._proc.stdin.close()
        except OSError:  # it has already exited
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` on a host where the kernel takes ``NOMINAL_S``, not ``kernel_s``."""
    return seconds * NOMINAL_S / kernel_s


if __name__ == "__main__":
    _serve()
