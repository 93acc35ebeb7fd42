"""`python -m famsel`: the famsel command line."""

from .cli import run

if __name__ == "__main__":
    run()
