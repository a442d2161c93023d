import signal
import sys

from .cli import main

if __name__ == "__main__":
    # A reader that closes the pipe early ends tcm as it ends cat: by
    # SIGPIPE, with no traceback.  Windows has no SIGPIPE.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
