"""Run one krext CLI command with tracing; used by traced toolkit runs.

    python3 perfbench/cli_child.py SPANS_FILE COMMAND [ARGS...]
"""

import sys

from tracing import main_child

if __name__ == "__main__":
    sys.exit(main_child(sys.argv[2:], sys.argv[1]))
