"""Set-up probe, run in a fresh interpreter: import pfoco, parse one
config and build its feasible set (a polytope solves its 2n bounding
LPs here).

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON
"""

import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from pfoco.harness import build_set, parse_config_file

    build_set(parse_config_file(sys.argv[2]).set_cfg)
