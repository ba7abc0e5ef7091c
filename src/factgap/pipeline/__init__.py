"""Stage pipeline: prompts, parsers, stage engine, and the runner."""
