"""Fixed reference computation, timed next to every pass.

The host this benchmark runs on changes speed by up to 1.8x from one minute
to the next.  `wall_ref` divides pass time by the time of this script, run
in the same way between passes, so that drift cancels.  It imports nothing
from rsgraphs and must never change: a change to it rescales `wall_ref`.
Its mix matches the program's: big-integer bit operations, dict stores and
numpy array work, about 0.3 s on one 2-vCPU Xeon core.
"""

import numpy as np

x = 0
table = {}
for i in range(400_000):
    x ^= (x << 3 | i) & ((1 << 300) - 1)
    table[i & 4095] = x.bit_count()
a = np.arange(200_000) % 977
for _ in range(20):
    a = np.sort(a ^ 5)
print(len(table), int(a[-1]))
