"""The repo-wide end-to-end benchmark (see README.md); entry point: run.py."""
