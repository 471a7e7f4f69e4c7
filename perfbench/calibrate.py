"""Fixed reference work that measures how fast the machine runs right now.

    python perfbench/calibrate.py

The harness times this script, in a fresh interpreter, between workload
passes and scales every end-to-end time by it (see README.md, "Machine
speed").  It mixes what pemskit's workloads spend their time on:
interpreter start-up and the numpy import, a bytecode loop, dict and
string work, parsing floats from text, and numpy sorting, arithmetic and
a blocked distance scan with a partial sort.  It never imports pemskit,
so a change to pemskit cannot change its time.  Its inputs are fixed;
only its time matters.
"""

import numpy as np

total = 0
for i in range(150_000):
    total += (i * i) % 7
table = {str(i): i for i in range(50_000)}
text = ",".join(str(i * 0.5) for i in range(50_000))
values = [float(x) for x in text.split(",")]

rng = np.random.default_rng(0)
vector = rng.random(200_000)
points = rng.random((2000, 8))
for _ in range(2):
    ordered = np.sort(vector)
    vector = vector * vector + ordered - ordered
    d2 = ((points[:200, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    np.argpartition(d2, 3, axis=1)
