"""Network containers, black-box query access, generation, and interchange."""
