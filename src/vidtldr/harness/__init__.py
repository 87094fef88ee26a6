"""Experiment harness: configs, synthetic clips, runs, tensor dumps, CLI."""
