"""The object model: classes, method dictionaries, the heap and
context recycling."""
