import sys

from perf.runner import main

if __name__ == "__main__":
    sys.exit(main())
