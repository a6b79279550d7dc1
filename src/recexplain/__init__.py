"""Extractive review-sentence explanations for recommender systems."""
