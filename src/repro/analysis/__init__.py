"""Result analysis: the paper's tables and case-study tooling."""
