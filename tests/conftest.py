from hypothesis import settings

# pytest --hypothesis-profile=ci runs each property test on 2,000 examples
settings.register_profile("ci", max_examples=2000)
