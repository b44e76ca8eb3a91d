"""Rendezvous in action: publications meet subscriptions.

The rendezvous stores who offers what and who wants what. A match emits
an event carrying the full current subscriber set, so the topology
manager can (re)build the delivery tree whenever membership changes; an
empty set tears a tree down.
"""

from ipicn import Locality, Rendezvous, external_scope, name_for_ip, render_name


def show(label, events):
    if not events:
        print(f"{label}: (no match)")
    for ev in events:
        subs = sorted(ev.subscribers) or "none - tear down"
        print(f"{label}: item {render_name(ev.name)}")
        print(f"    publisher {ev.publisher}, subscribers {subs}")


def main() -> None:
    rv = Rendezvous()
    google = name_for_ip("8.8.8.8", Locality.EXTERNAL)
    printer = name_for_ip("10.0.2.9", Locality.INTERNAL)

    print("== the border gateway subscribes to the whole external scope ==")
    show("subscribe O-scope", rv.subscribe(99, external_scope()))

    print()
    print("== a NAP announces traffic for 8.8.8.8; the scope sub matches ==")
    show("publish 8.8.8.8", rv.publish_availability(1, google))

    print()
    print("== publishing with no subscriber stays silent ==")
    show("publish 10.0.2.9", rv.publish_availability(1, printer))

    print()
    print("== the destination NAP arrives late and still matches ==")
    show("subscribe 10.0.2.9", rv.subscribe(2, printer))

    print()
    print("== a second subscriber joins; the event carries both ==")
    show("subscribe again", rv.subscribe(3, printer))

    print()
    print("== subscribers leave one by one ==")
    show("unsubscribe 3", rv.unsubscribe(3, printer))
    show("unsubscribe 2", rv.unsubscribe(2, printer))

    print()
    print("== unpublishing a matched item tears its tree down ==")
    show("unpublish 8.8.8.8", rv.unpublish(1, google))


if __name__ == "__main__":
    main()
