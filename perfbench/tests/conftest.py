import os
import sys

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_BENCH, os.path.join(os.path.dirname(_BENCH), "src")]
