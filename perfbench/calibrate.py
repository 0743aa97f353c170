"""A fixed job that times the machine, not the program.

    python3 perfbench/calibrate.py

It starts an interpreter, imports numpy, runs an integer loop in Python and
a few numpy convolutions: the same kinds of work as a qeuler process, and
none of qeuler's code.  run.py times it between the program's calls and
scales every timing by how far the job's median time is from its
reference duration, so a run taken while the shared host runs slow or fast
reads as it would at the reference speed.
"""

import numpy as np

x = 0
for i in range(60000):
    x += (i * i) % 7
a = np.arange(1, 2001, dtype=float)
for _ in range(25):
    np.convolve(a, a)
