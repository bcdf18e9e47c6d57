"""Constraint language: parsing, AST, and interpretation."""
